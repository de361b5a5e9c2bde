package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func unitWeights(v int) float64  { return 1 }
func zeroEdges(u, v int) float64 { return 0 }
func constEdges(w float64) EdgeWeightFunc {
	return func(u, v int) float64 { return w }
}

func TestComputeLevelsChain(t *testing.T) {
	// 0 -> 1 -> 2 with vertex weight 2 and edge weight 1.
	d := New(3)
	mustEdge(t, d, 0, 1)
	mustEdge(t, d, 1, 2)
	vw := func(v int) float64 { return 2 }
	lv, err := ComputeLevels(d, vw, constEdges(1))
	if err != nil {
		t.Fatal(err)
	}
	wantTop := []float64{0, 3, 6}
	wantBottom := []float64{8, 5, 2}
	if !reflect.DeepEqual(lv.Top, wantTop) {
		t.Errorf("Top = %v, want %v", lv.Top, wantTop)
	}
	if !reflect.DeepEqual(lv.Bottom, wantBottom) {
		t.Errorf("Bottom = %v, want %v", lv.Bottom, wantBottom)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	d := diamond(t)
	// Vertex weights: heavier on branch via 2.
	vw := func(v int) float64 { return []float64{1, 2, 5, 1}[v] }
	length, path, err := CriticalPath(d, vw, zeroEdges)
	if err != nil {
		t.Fatal(err)
	}
	if length != 7 {
		t.Errorf("length = %v, want 7", length)
	}
	if !reflect.DeepEqual(path, []int{0, 2, 3}) {
		t.Errorf("path = %v, want [0 2 3]", path)
	}
	comp, comm := PathCosts(path, vw, zeroEdges)
	if comp != 7 || comm != 0 {
		t.Errorf("PathCosts = (%v,%v), want (7,0)", comp, comm)
	}
}

func TestCriticalPathEdgeWeightsDominate(t *testing.T) {
	d := diamond(t)
	vw := unitWeights
	// Branch through vertex 1 has heavy edges.
	ew := func(u, v int) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 3) {
			return 10
		}
		return 0
	}
	length, path, err := CriticalPath(d, vw, ew)
	if err != nil {
		t.Fatal(err)
	}
	if length != 23 {
		t.Errorf("length = %v, want 23", length)
	}
	if !reflect.DeepEqual(path, []int{0, 1, 3}) {
		t.Errorf("path = %v, want [0 1 3]", path)
	}
	comp, comm := PathCosts(path, vw, ew)
	if comp != 3 || comm != 20 {
		t.Errorf("PathCosts = (%v,%v), want (3,20)", comp, comm)
	}
}

func TestCriticalPathEmptyAndSingle(t *testing.T) {
	length, path, err := CriticalPath(New(0), unitWeights, zeroEdges)
	if err != nil || length != 0 || path != nil {
		t.Errorf("empty graph: (%v,%v,%v)", length, path, err)
	}
	length, path, err = CriticalPath(New(1), func(int) float64 { return 4 }, zeroEdges)
	if err != nil || length != 4 || !reflect.DeepEqual(path, []int{0}) {
		t.Errorf("single vertex: (%v,%v,%v)", length, path, err)
	}
}

func TestCriticalPathCycleError(t *testing.T) {
	d := New(2)
	mustEdge(t, d, 0, 1)
	mustEdge(t, d, 1, 0)
	if _, _, err := CriticalPath(d, unitWeights, zeroEdges); err != ErrCycle {
		t.Errorf("err = %v, want ErrCycle", err)
	}
	if _, err := ComputeLevels(d, unitWeights, zeroEdges); err != ErrCycle {
		t.Errorf("levels err = %v, want ErrCycle", err)
	}
}

// Property: the critical path length is an upper bound on the length of any
// root-to-sink path obtained by a random walk, and the returned path itself
// realizes exactly the reported length.
func TestCriticalPathDominatesRandomWalks(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := randomDAG(rr, 2+rr.Intn(20), 0.3)
		vweights := make([]float64, d.N())
		for i := range vweights {
			vweights[i] = rr.Float64() * 10
		}
		vw := func(v int) float64 { return vweights[v] }
		ew := func(u, v int) float64 { return float64((u+v)%3) * 0.5 }
		length, path, err := CriticalPath(d, vw, ew)
		if err != nil {
			return false
		}
		comp, comm := PathCosts(path, vw, ew)
		if !ApproxEq(comp+comm, length) {
			return false
		}
		// Random walks from random sources never exceed the CP length.
		for trial := 0; trial < 20; trial++ {
			src := d.Sources()
			v := src[rr.Intn(len(src))]
			walk := []int{v}
			for len(d.Succ(v)) > 0 {
				v = d.Succ(v)[rr.Intn(len(d.Succ(v)))]
				walk = append(walk, v)
			}
			c1, c2 := PathCosts(walk, vw, ew)
			if c1+c2 > length+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: topL(v) + bottomL(v) <= CP length for every vertex, with
// equality for at least one vertex.
func TestLevelsBoundedByCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := randomDAG(rr, 2+rr.Intn(20), 0.3)
		vw := func(v int) float64 { return float64(v%5) + 1 }
		ew := constEdges(0.25)
		lv, err := ComputeLevels(d, vw, ew)
		if err != nil {
			return false
		}
		length, _, err := CriticalPath(d, vw, ew)
		if err != nil {
			return false
		}
		hit := false
		for v := 0; v < d.N(); v++ {
			s := lv.Top[v] + lv.Bottom[v]
			if s > length+1e-9 {
				return false
			}
			if ApproxEq(s, length) {
				hit = true
			}
		}
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
