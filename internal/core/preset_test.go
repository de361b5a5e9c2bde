package core

import (
	"math"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
)

func presetFixture(t *testing.T) *model.TaskGraph {
	t.Helper()
	return mustTG(t,
		[]model.Task{
			tableTask(t, "done", 10),
			tableTask(t, "next", 10, 10),
			tableTask(t, "free", 10),
		},
		[]model.Edge{{From: 0, To: 1, Volume: 1000}})
}

var presetCluster = model.Cluster{P: 4, Bandwidth: 1e6, Overlap: true}

func TestLoCBSWithPresetValidation(t *testing.T) {
	tg := presetFixture(t)
	np := []int{1, 2, 1}
	cases := []Preset{
		{BusyUntil: []float64{1, 2}},                                         // wrong length
		{NodeFactor: []float64{1, 1, 1}},                                     // wrong length
		{NodeFactor: []float64{1, 0, 1, 1}},                                  // non-positive factor
		{Fixed: map[int]schedule.Placement{7: {Procs: []int{0}}}},            // task out of range
		{Fixed: map[int]schedule.Placement{0: {}}},                           // no processors
		{Fixed: map[int]schedule.Placement{0: {Procs: []int{9}, Finish: 1}}}, // proc out of range
	}
	for i, preset := range cases {
		if _, err := LoCBSWithPreset(tg, presetCluster, np, DefaultConfig(), preset); err == nil {
			t.Errorf("case %d: invalid preset accepted: %+v", i, preset)
		}
	}
}

func TestLoCBSWithPresetKeepsFixedTasks(t *testing.T) {
	tg := presetFixture(t)
	fixed := schedule.Placement{Procs: []int{2}, Start: 0, Finish: 12, DataReady: 0}
	s, err := LoCBSWithPreset(tg, presetCluster, []int{1, 1, 1}, DefaultConfig(), Preset{
		Fixed: map[int]schedule.Placement{0: fixed},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Placements[0]
	if got.Start != 0 || got.Finish != 12 || got.Procs[0] != 2 {
		t.Errorf("fixed placement rewritten: %+v", got)
	}
	// Child must wait for the fixed parent and, with locality, prefers its
	// processor.
	child := s.Placements[1]
	if child.Start < 12-schedule.Eps {
		t.Errorf("child started at %v before fixed parent finished", child.Start)
	}
	if child.Procs[0] != 2 {
		t.Errorf("child ignored parent locality: %v", child.Procs)
	}
	// The independent task backfills before the frontier on another proc.
	free := s.Placements[2]
	if free.Start != 0 {
		t.Errorf("independent task delayed to %v", free.Start)
	}
}

func TestLoCBSWithPresetBusyUntil(t *testing.T) {
	tg := mustTG(t, []model.Task{tableTask(t, "only", 10)}, nil)
	s, err := LoCBSWithPreset(tg, presetCluster, []int{1}, DefaultConfig(), Preset{
		BusyUntil: []float64{100, 100, 100, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Placements[0]
	if pl.Start != 5 || pl.Procs[0] != 3 {
		t.Errorf("placement = %+v, want start 5 on proc 3", pl)
	}
}

func TestLoCBSWithPresetNodeFactorAvoidsSlowNode(t *testing.T) {
	tg := mustTG(t, []model.Task{tableTask(t, "t", 10)}, nil)
	s, err := LoCBSWithPreset(tg, presetCluster, []int{1}, DefaultConfig(), Preset{
		NodeFactor: []float64{8, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Placements[0]
	if pl.Procs[0] == 0 {
		t.Error("task placed on the slow node")
	}
	if math.Abs(pl.Finish-pl.Start-10) > 1e-9 {
		t.Errorf("duration = %v, want 10 at nominal speed", pl.Finish-pl.Start)
	}
}

func TestLoCBSWithPresetNodeFactorStretchesDuration(t *testing.T) {
	// Only one processor: the task must run on it, 3x slower.
	tg := mustTG(t, []model.Task{tableTask(t, "t", 10)}, nil)
	c := model.Cluster{P: 1, Bandwidth: 1e6, Overlap: true}
	s, err := LoCBSWithPreset(tg, c, []int{1}, DefaultConfig(), Preset{
		NodeFactor: []float64{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Placements[0].Finish - s.Placements[0].Start; math.Abs(d-30) > 1e-9 {
		t.Errorf("duration = %v, want 30", d)
	}
}

func TestScheduleWithPresetReallocatesRemaining(t *testing.T) {
	// Two scalable independent tasks; one already ran on procs {0,1}.
	// The full loop should widen the remaining task over what's left.
	tg := mustTG(t,
		[]model.Task{
			{Name: "ran", Profile: speedup.Linear{T1: 40}},
			{Name: "todo", Profile: speedup.Linear{T1: 40}},
		}, nil)
	fixed := schedule.Placement{Procs: []int{0, 1}, Start: 0, Finish: 55, DataReady: 0}
	alg := New()
	s, err := alg.ScheduleWithPreset(tg, presetCluster, Preset{
		Fixed:     map[int]schedule.Placement{0: fixed},
		BusyUntil: []float64{55, 55, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	todo := s.Placements[1]
	if todo.NP() != 2 || todo.Procs[0] != 2 || todo.Procs[1] != 3 {
		t.Errorf("todo placement = %+v, want widened onto free procs {2,3}", todo)
	}
	if todo.Start != 0 {
		t.Errorf("todo should start immediately, got %v", todo.Start)
	}
	// Fixed task width must never change.
	if s.Placements[0].NP() != 2 || s.Placements[0].Finish != 55 {
		t.Errorf("fixed task modified: %+v", s.Placements[0])
	}
}

// TestLoCBSWithPresetFixedInsideBusyUntil: a fixed task that ran wholly
// or partly before the busy frontier (a stream's completed and running
// tasks at "now") must not reopen the past — new work on its processors
// starts at BusyUntil or later, and never overlaps the fixed span.
func TestLoCBSWithPresetFixedInsideBusyUntil(t *testing.T) {
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "done", 5),
			tableTask(t, "running", 10),
			tableTask(t, "new", 1),
			tableTask(t, "new2", 1),
		}, nil)
	c := model.Cluster{P: 2, Bandwidth: 1e6, Overlap: true}
	fixed := map[int]schedule.Placement{
		0: {Procs: []int{0}, Start: 0, Finish: 5},
		1: {Procs: []int{1}, Start: 2, Finish: 12},
	}
	busy := []float64{10, 10}
	noBackfill := DefaultConfig()
	noBackfill.Backfill = false
	for _, cfg := range []Config{DefaultConfig(), noBackfill} {
		s, err := LoCBSWithPreset(tg, c, []int{1, 1, 1, 1}, cfg, Preset{Fixed: fixed, BusyUntil: busy})
		if err != nil {
			t.Fatal(err)
		}
		for task := 2; task < tg.N(); task++ {
			pl := s.Placements[task]
			for _, p := range pl.Procs {
				if pl.Start < busy[p]-schedule.Eps {
					t.Errorf("%s: task %d starts at %v on processor %d, busy until %v", engineName(cfg), task, pl.Start, p, busy[p])
				}
				if p == 1 && pl.Start < 12-schedule.Eps {
					t.Errorf("%s: task %d at %v overlaps the running task on processor 1", engineName(cfg), task, pl.Start)
				}
			}
		}
	}
}
