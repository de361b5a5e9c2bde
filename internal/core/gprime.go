package core

import (
	"math"

	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/schedule"
)

// gPrime derives CP(G') — the critical path of the schedule-DAG, i.e. the
// application DAG plus the zero-weight pseudo-edges of resource-induced
// dependences (paper §III.A) — in one flat pass, without materializing
// G' as a graph. The search runs it once per LoCBS run; every buffer is
// reused, so after warm-up it allocates nothing.
//
// The result is bit-identical to Schedule.CriticalPath, which stays the
// test oracle:
//   - pseudo-edges are found in ScheduleDAG's scan order (tp, then ti,
//     ascending) with its tie rules, and appended after a vertex's real
//     successors, so the successor order equals the cloned DAG's;
//   - top and bottom levels are maxima of identical sums, so any
//     topological order yields the same values;
//   - the path is reconstructed as graph.CriticalPath does it: the first
//     source whose bottom level equals the length, then the first
//     successor that preserves the bottom level at every hop.
//
// A gPrime is single-goroutine scratch.
type gPrime struct {
	// bits is an n x ceil(P/64) bitset of each task's processor set.
	bits []uint64
	// pseudoFrom/pseudoTo list the pseudo-edges in insertion order.
	pseudoFrom, pseudoTo []int32
	// succOff/succTo/succID are G''s successor lists in CSR form: the
	// successors of v are succTo[succOff[v]:succOff[v+1]], real edges
	// first (carrying their dense id), then pseudo-edges (id -1).
	succOff, succTo, succID []int32
	// nin counts each vertex's predecessors in G'; indeg is its working
	// copy during the topological sweep.
	nin, indeg []int32
	order      []int32
	vw         []float64
	ew         []float64 // edge weight aligned with succTo
	top, bot   []float64

	// Outputs of the last run, valid until the next one: the critical
	// path and, per hop i (path[i] -> path[i+1]), the edge's dense id
	// (-1 for a pseudo-edge) and the charge the schedule recorded on it
	// (0 for a pseudo-edge).
	path    []int
	hopEdge []int
	hopComm []float64
}

// run computes CP(G') of s, the LoCBS result for allocation np. Vertex
// weights are et(t, np[t]); real edges weigh their charged redistribution
// time when commAware and zero otherwise (iCASLB's view), pseudo-edges
// weigh zero. It returns the critical-path length.
func (g *gPrime) run(s *schedule.Schedule, tg *model.TaskGraph, tb *model.Tables, np []int, commAware bool) (float64, error) {
	n := tg.N()
	g.findPseudoEdges(s, tg, n)
	g.buildSucc(s, tg, n, commAware)

	g.vw = growFloats(g.vw, n)
	for v := 0; v < n; v++ {
		g.vw[v] = tb.ExecTime(v, np[v])
	}

	// Top levels by forward relaxation along Kahn's sweep: every
	// predecessor of w is popped before w, so top[w] ends as the maximum
	// over its predecessors, exactly as the pull formulation computes it.
	top := growFloats(g.top, n)
	g.top = top
	indeg := append(g.indeg[:0], g.nin...)
	g.indeg = indeg
	order := g.order[:0]
	for v := 0; v < n; v++ {
		top[v] = 0
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		base := top[v] + g.vw[v]
		for k := g.succOff[v]; k < g.succOff[v+1]; k++ {
			w := g.succTo[k]
			if cand := base + g.ew[k]; cand > top[w] {
				top[w] = cand
			}
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	g.order = order
	if len(order) != n {
		return 0, graph.ErrCycle
	}

	bot := growFloats(g.bot, n)
	g.bot = bot
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for k := g.succOff[v]; k < g.succOff[v+1]; k++ {
			if cand := g.ew[k] + bot[g.succTo[k]]; cand > best {
				best = cand
			}
		}
		bot[v] = g.vw[v] + best
	}

	length := 0.0
	for v := 0; v < n; v++ {
		if l := top[v] + bot[v]; l > length {
			length = l
		}
	}
	start := -1
	for v := 0; v < n; v++ {
		if g.nin[v] == 0 && graph.ApproxEq(bot[v], length) {
			start = v
			break
		}
	}
	if start == -1 {
		best := math.Inf(-1)
		for v := 0; v < n; v++ {
			if g.nin[v] == 0 && bot[v] > best {
				best, start = bot[v], v
			}
		}
	}
	g.path = append(g.path[:0], start)
	g.hopEdge = g.hopEdge[:0]
	g.hopComm = g.hopComm[:0]
	for v := start; ; {
		next := int32(-1)
		var k int32
		for k = g.succOff[v]; k < g.succOff[v+1]; k++ {
			if w := g.succTo[k]; graph.ApproxEq(bot[v], g.vw[v]+g.ew[k]+bot[w]) {
				next = w
				break
			}
		}
		if next < 0 {
			break
		}
		id, charge := int(g.succID[k]), 0.0
		if id >= 0 {
			charge = s.CommID(id)
		}
		g.path = append(g.path, int(next))
		g.hopEdge = append(g.hopEdge, id)
		g.hopComm = append(g.hopComm, charge)
		v = int(next)
	}
	return length, nil
}

// findPseudoEdges lists G”s pseudo-edges exactly as
// Schedule.ScheduleDAG adds them: ti -> tp whenever tp started after its
// data-ready time, ti finished exactly when tp started, ti started
// strictly before tp, the two share a processor, and neither ti -> tp nor
// tp -> ti is already an edge.
func (g *gPrime) findPseudoEdges(s *schedule.Schedule, tg *model.TaskGraph, n int) {
	words := (s.Cluster.P + 63) / 64
	g.bits = growUint64s(g.bits, n*words)
	for i := range g.bits {
		g.bits[i] = 0
	}
	pls := s.Placements
	for t := range pls {
		row := g.bits[t*words : (t+1)*words]
		for _, p := range pls[t].Procs {
			row[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	g.pseudoFrom, g.pseudoTo = g.pseudoFrom[:0], g.pseudoTo[:0]
	for tp := range pls {
		pl := &pls[tp]
		if pl.Start <= pl.DataReady+schedule.Eps {
			continue
		}
		row := g.bits[tp*words : (tp+1)*words]
		for ti := range pls {
			pli := &pls[ti]
			if ti == tp || math.Abs(pli.Finish-pl.Start) > schedule.Eps {
				continue
			}
			if pli.Start >= pl.Start-schedule.Eps {
				// ti must have started strictly before tp starts; this
				// excludes zero-duration tasks at the same instant, which
				// could otherwise chain into a cycle of pseudo-edges.
				continue
			}
			shared := false
			for _, p := range pli.Procs {
				if row[p>>6]&(1<<(uint(p)&63)) != 0 {
					shared = true
					break
				}
			}
			if !shared || g.hasEdge(tg, tp, ti) || g.hasEdge(tg, ti, tp) {
				continue
			}
			g.pseudoFrom = append(g.pseudoFrom, int32(ti))
			g.pseudoTo = append(g.pseudoTo, int32(tp))
		}
	}
}

// hasEdge reports whether u -> v is a real edge or an already listed
// pseudo-edge.
func (g *gPrime) hasEdge(tg *model.TaskGraph, u, v int) bool {
	if _, ok := tg.EdgeID(u, v); ok {
		return true
	}
	for i, f := range g.pseudoFrom {
		if int(f) == u && int(g.pseudoTo[i]) == v {
			return true
		}
	}
	return false
}

// buildSucc lays out G”s successor lists, edge weights and in-degrees.
func (g *gPrime) buildSucc(s *schedule.Schedule, tg *model.TaskGraph, n int, commAware bool) {
	g.succOff = growInt32s(g.succOff, n+1)
	g.nin = growInt32s(g.nin, n)
	for v := 0; v < n; v++ {
		g.succOff[v+1] = int32(len(tg.SuccEdges(v)))
		g.nin[v] = int32(len(tg.PredEdges(v)))
	}
	for i, f := range g.pseudoFrom {
		g.succOff[f+1]++
		g.nin[g.pseudoTo[i]]++
	}
	g.succOff[0] = 0
	for v := 0; v < n; v++ {
		g.succOff[v+1] += g.succOff[v]
	}
	m := int(g.succOff[n])
	g.succTo = growInt32s(g.succTo, m)
	g.succID = growInt32s(g.succID, m)
	g.ew = growFloats(g.ew, m)
	// Real successors first, in the graph's adjacency order; each
	// vertex's pseudo-edges then fill its tail slots in insertion order.
	// indeg serves as the per-vertex fill cursor here; the sweep
	// re-initializes it.
	g.indeg = growInt32s(g.indeg, n)
	for v := 0; v < n; v++ {
		k := g.succOff[v]
		for _, se := range tg.SuccEdges(v) {
			g.succTo[k], g.succID[k] = int32(se.Other), int32(se.ID)
			g.ew[k] = 0
			if commAware {
				g.ew[k] = s.CommID(se.ID)
			}
			k++
		}
		g.indeg[v] = k
	}
	for i, f := range g.pseudoFrom {
		k := g.indeg[f]
		g.succTo[k], g.succID[k], g.ew[k] = g.pseudoTo[i], -1, 0
		g.indeg[f]++
	}
}
