package graph

import "math"

// WeightFunc supplies a vertex weight (e.g. execution time of the task on
// its allocated processors).
type WeightFunc func(v int) float64

// EdgeWeightFunc supplies an edge weight (e.g. the redistribution cost
// between the processor groups of the incident tasks). Pseudo-edges induced
// by resource constraints carry weight zero.
type EdgeWeightFunc func(u, v int) float64

// Levels holds top and bottom levels for every vertex of a weighted DAG.
//
// topL(v) is the length of the longest path from any source to v excluding
// v's own weight; bottomL(v) is the length of the longest path from v to any
// sink including v's own weight (paper §II). Lengths sum vertex and edge
// weights along the path.
type Levels struct {
	Top    []float64
	Bottom []float64
}

// ComputeLevels computes top and bottom levels in a single forward and a
// single backward sweep over a topological order. It returns ErrCycle for
// cyclic graphs.
func ComputeLevels(d *DAG, vw WeightFunc, ew EdgeWeightFunc) (Levels, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return Levels{}, err
	}
	n := d.N()
	top := make([]float64, n)
	bottom := make([]float64, n)
	for _, v := range order {
		best := 0.0
		for _, u := range d.Pred(v) {
			cand := top[u] + vw(u) + ew(u, v)
			if cand > best {
				best = cand
			}
		}
		top[v] = best
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for _, w := range d.Succ(v) {
			cand := ew(v, w) + bottom[w]
			if cand > best {
				best = cand
			}
		}
		bottom[v] = vw(v) + best
	}
	return Levels{Top: top, Bottom: bottom}, nil
}

// CriticalPath returns the longest weighted path in the DAG: its length and
// the vertices along it in execution order. Any vertex v maximizing
// topL(v)+bottomL(v) lies on a critical path; the path is reconstructed by
// walking from such a source-side start greedily through successors that
// preserve the bottom level. For an empty graph it returns (0, nil).
func CriticalPath(d *DAG, vw WeightFunc, ew EdgeWeightFunc) (float64, []int, error) {
	if d.N() == 0 {
		return 0, nil, nil
	}
	lv, err := ComputeLevels(d, vw, ew)
	if err != nil {
		return 0, nil, err
	}
	length, path := reconstructPath(d, lv, vw, ew)
	return length, path, nil
}

// reconstructPath finds the critical-path length and walks one critical path
// from a source. The path starts at a source vertex whose bottom level
// equals the overall critical-path length.
func reconstructPath(d *DAG, lv Levels, vw WeightFunc, ew EdgeWeightFunc) (float64, []int) {
	n := d.N()
	length := 0.0
	for v := 0; v < n; v++ {
		if l := lv.Top[v] + lv.Bottom[v]; l > length {
			length = l
		}
	}
	start := -1
	for s := 0; s < n; s++ {
		if len(d.Pred(s)) == 0 && ApproxEq(lv.Bottom[s], length) {
			start = s
			break
		}
	}
	if start == -1 {
		// Defensive: with non-negative weights a source must achieve the
		// maximum, but floating error could hide it; fall back to the best
		// source.
		best := math.Inf(-1)
		for s := 0; s < n; s++ {
			if len(d.Pred(s)) == 0 && lv.Bottom[s] > best {
				best = lv.Bottom[s]
				start = s
			}
		}
	}
	path := []int{start}
	v := start
	for {
		next := -1
		for _, w := range d.Succ(v) {
			if ApproxEq(lv.Bottom[v], vw(v)+ew(v, w)+lv.Bottom[w]) {
				next = w
				break
			}
		}
		if next == -1 {
			break
		}
		path = append(path, next)
		v = next
	}
	return length, path
}

// PathCosts splits a path's total length into the computation part (sum of
// vertex weights) and the communication part (sum of edge weights), the
// quantities LoC-MPS compares to decide whether to widen a task or an edge.
func PathCosts(path []int, vw WeightFunc, ew EdgeWeightFunc) (comp, comm float64) {
	for i, v := range path {
		comp += vw(v)
		if i+1 < len(path) {
			comm += ew(v, path[i+1])
		}
	}
	return comp, comm
}

// ApproxEq compares floats with a relative-and-absolute tolerance suited to
// schedule arithmetic (sums of task durations). It is the critical-path
// walk's tolerance, shared with the search's flat G' kernel.
func ApproxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= 1e-9 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
