package locmps_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"locmps"
)

// TestIncrementalMatchesReference is the schedule-diff safety net for the
// incremental placement engine: the optimized scheduler (memo + resume)
// must emit bit-identical schedules to the reference configuration that
// recomputes everything from scratch, across the same workload families
// the golden fixture covers.
func TestIncrementalMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is several seconds of scheduling work")
	}

	p := locmps.DefaultSynthParams()
	p.CCR = 0.1
	p.Seed = 2006
	graphs, err := locmps.SyntheticSuite(p, 5, 10, 25)
	if err != nil {
		t.Fatalf("synthetic suite: %v", err)
	}
	ccsd, err := locmps.CCSDT1(locmps.CCSDParams{O: 16, V: 64})
	if err != nil {
		t.Fatalf("ccsd: %v", err)
	}

	type cell struct {
		name string
		tg   *locmps.TaskGraph
		c    locmps.Cluster
	}
	var cells []cell
	for gi, tg := range graphs {
		for _, procs := range []int{4, 8, 16} {
			cells = append(cells, cell{
				name: fmt.Sprintf("synthetic-g%d-P%d", gi, procs),
				tg:   tg,
				c:    locmps.Cluster{P: procs, Bandwidth: p.Bandwidth, Overlap: true},
			})
		}
	}
	cells = append(cells,
		cell{name: "synthetic-g1-P8-noOverlap", tg: graphs[1],
			c: locmps.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: false}},
		cell{name: "ccsd-P16", tg: ccsd,
			c: locmps.Cluster{P: 16, Bandwidth: locmps.MyrinetBandwidth, Overlap: true}},
	)

	for _, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			opt, err := locmps.NewLoCMPS().Schedule(cl.tg, cl.c)
			if err != nil {
				t.Fatalf("optimized: %v", err)
			}
			ref, err := locmps.NewLoCMPSReference().Schedule(cl.tg, cl.c)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if math.Float64bits(opt.Makespan) != math.Float64bits(ref.Makespan) {
				t.Fatalf("makespan %v != reference %v", opt.Makespan, ref.Makespan)
			}
			for ti := range opt.Placements {
				po, pr := opt.Placements[ti], ref.Placements[ti]
				if !reflect.DeepEqual(po.Procs, pr.Procs) ||
					math.Float64bits(po.Start) != math.Float64bits(pr.Start) ||
					math.Float64bits(po.Finish) != math.Float64bits(pr.Finish) {
					t.Fatalf("task %d diverged: %v@[%v,%v] vs reference %v@[%v,%v]",
						ti, po.Procs, po.Start, po.Finish, pr.Procs, pr.Start, pr.Finish)
				}
			}
		})
	}
}
