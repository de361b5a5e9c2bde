package core

import (
	"reflect"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

// TestWorkerScheduleWithPresetBitIdentical: running a preset-constrained
// search on a pinned worker — including a second run on the now-warm
// scratch — must reproduce the pool-scratch path bit for bit. This is
// the contract the rolling-horizon streaming rescheduler rests on.
func TestWorkerScheduleWithPresetBitIdentical(t *testing.T) {
	p := synth.DefaultParams()
	p.Tasks = 12
	p.Seed = 99
	p.CCR = 0.5
	tg, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cluster := presetCluster
	base, err := New().Schedule(tg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the two earliest-starting tasks as already running and block
	// the near past, like a mid-stream reschedule does.
	fixed := map[int]schedule.Placement{}
	horizon := 0.0
	for id := range base.Placements {
		if len(fixed) == 2 {
			break
		}
		pl := base.Placements[id]
		if pl.Start == 0 {
			fixed[id] = schedule.Placement{
				Procs: append([]int(nil), pl.Procs...), Start: pl.Start,
				Finish: pl.Finish, DataReady: pl.DataReady, CommTime: pl.CommTime,
			}
			if pl.Finish > horizon {
				horizon = pl.Finish
			}
		}
	}
	if len(fixed) == 0 {
		t.Fatal("fixture has no entry tasks at t=0")
	}
	busy := make([]float64, cluster.P)
	for i := range busy {
		busy[i] = horizon / 2
	}
	preset := Preset{Fixed: fixed, BusyUntil: busy}

	want, err := New().ScheduleWithPreset(tg, cluster, preset)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker()
	defer w.Close()
	for round := 0; round < 2; round++ {
		alg := New()
		got, err := w.ScheduleWithPreset(alg, tg, cluster, preset)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertSameSchedule(t, want, got, "worker preset round")
		if alg.LastStats().LoCBSRuns == 0 {
			t.Errorf("round %d: LastStats not populated", round)
		}
	}
	// The fixed tasks must sit exactly where the preset pinned them.
	got, err := w.ScheduleWithPreset(New(), tg, cluster, preset)
	if err != nil {
		t.Fatal(err)
	}
	for id, pl := range fixed {
		g := got.Placements[id]
		if g.Start != pl.Start || g.Finish != pl.Finish {
			t.Errorf("fixed task %d moved: (%v,%v) vs (%v,%v)", id, g.Start, g.Finish, pl.Start, pl.Finish)
		}
	}
}

// TestWorkerResultsSurviveLaterRuns guards the reused search outputs: a
// schedule one Worker returned must not change when the same Worker runs
// another search and then a preset search. The serving layer's result
// cache and the streaming rescheduler both hold returned schedules across
// later runs on the same worker.
func TestWorkerResultsSurviveLaterRuns(t *testing.T) {
	graph := func(seed int64) *model.TaskGraph {
		p := synth.DefaultParams()
		p.Tasks = 16
		p.Seed = seed
		p.CCR = 0.5
		tg, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		return tg
	}
	tgA, tgB := graph(3), graph(4)
	w := NewWorker()
	defer w.Close()

	a, err := w.Schedule(New(), tgA, presetCluster)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := a.Clone()
	if _, err := w.Schedule(New(), tgB, presetCluster); err != nil {
		t.Fatal(err)
	}
	busy := make([]float64, presetCluster.P)
	for i := range busy {
		busy[i] = float64(i)
	}
	if _, err := w.ScheduleWithPreset(New(), tgA, presetCluster, Preset{BusyUntil: busy}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, snapshot) {
		t.Fatal("a returned schedule changed when its worker ran later searches")
	}
}
