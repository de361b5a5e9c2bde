package core

// memoEntryLimit bounds the number of cached allocation vectors per search
// so a pathological run cannot grow the table without bound. A mid-scale
// search evaluates a few thousand distinct vectors, far below the cap;
// once full, lookups keep working but new results are not retained.
const memoEntryLimit = 1 << 16

// memoArenaChunk is the element count of one memo storage chunk: entries
// carve their slices out of shared chunks instead of allocating each one.
const memoArenaChunk = 4096

// fnv1aVector fingerprints a processor-count vector with FNV-1a, one word
// per count. Vector length and element order are part of the digest, so
// only genuinely equal vectors (same tasks, same widths) collide by
// construction — anything else is a hash accident the chain's full
// compare catches.
func fnv1aVector(np []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range np {
		h ^= uint64(v)
		h *= prime64
	}
	return h
}

// evalSummary is everything the search keeps of one evaluated allocation
// vector: its objective and CP(G') of its LoCBS schedule, with each hop's
// edge id and charge. The schedule itself is not kept — the look-ahead
// reads only these — so a memo entry costs a few dozen words.
type evalSummary struct {
	score score
	// cp is the critical path; hopEdge[i] is the dense id of the edge
	// cp[i] -> cp[i+1] (-1 for a pseudo-edge) and hopComm[i] the charge
	// the schedule recorded on it (0 for a pseudo-edge).
	cp      []int
	hopEdge []int
	hopComm []float64
}

// copyFrom makes s an owned copy of o, reusing s's slices.
func (s *evalSummary) copyFrom(o evalSummary) {
	s.score = o.score
	s.cp = append(s.cp[:0], o.cp...)
	s.hopEdge = append(s.hopEdge[:0], o.hopEdge...)
	s.hopComm = append(s.hopComm[:0], o.hopComm...)
}

// memoEntry is one evaluated allocation vector. next chains entries that
// share a fingerprint (-1 ends the chain).
type memoEntry struct {
	np   []int
	sum  evalSummary
	next int32
}

// allocMemo is the per-search allocation-vector memo table (§III.C/§III.E):
// it maps already-evaluated allocation vectors to their summary so neither
// the bounded look-ahead nor the repeat-until outer loop ever pays for the
// same vector twice. LoCBS is deterministic, so a hit is bit-identical to
// a fresh run by construction.
//
// The table is keyed by a FNV-1a fingerprint of the processor-count vector;
// entries sharing a fingerprint are chained and every probe does a full
// vector compare, so a collision costs a comparison, never a wrong result.
// Entries are immutable once inserted. A memo belongs to one search and is
// used by its goroutine only.
type allocMemo struct {
	heads   map[uint64]int32 // fingerprint -> first entry of its chain
	entries []memoEntry
	ints    []int     // storage chunk for np, cp and hopEdge
	floats  []float64 // storage chunk for hopComm
	// hash is fnv1aVector except in tests, which inject constant hashes to
	// force the collision path.
	hash func([]int) uint64
}

func newAllocMemo() *allocMemo {
	return &allocMemo{heads: make(map[uint64]int32), hash: fnv1aVector}
}

// lookup returns np's fingerprint (for a following insert) and its
// summary, if the vector was evaluated before.
func (m *allocMemo) lookup(np []int) (uint64, evalSummary, bool) {
	h := m.hash(np)
	i, ok := m.heads[h]
	for ok && i >= 0 {
		if e := &m.entries[i]; intsEqual(e.np, np) {
			return h, e.sum, true
		}
		i = m.entries[i].next
	}
	return h, evalSummary{}, false
}

// insert caches a copy of sum for np under fingerprint h (the one lookup
// returned; np and sum alias caller scratch). An existing entry wins:
// LoCBS is deterministic, so a duplicate insert carries identical values.
func (m *allocMemo) insert(h uint64, np []int, sum evalSummary) {
	if len(m.entries) >= memoEntryLimit {
		return
	}
	head, ok := m.heads[h]
	for i := head; ok && i >= 0; i = m.entries[i].next {
		if intsEqual(m.entries[i].np, np) {
			return
		}
	}
	if !ok {
		head = -1
	}
	ints := m.carveInts(len(np) + len(sum.cp) + len(sum.hopEdge))
	e := memoEntry{next: head, sum: evalSummary{score: sum.score}}
	e.np = ints[:copy(ints, np):len(np)]
	ints = ints[len(np):]
	e.sum.cp = ints[:copy(ints, sum.cp):len(sum.cp)]
	ints = ints[len(sum.cp):]
	e.sum.hopEdge = ints[:copy(ints, sum.hopEdge):len(sum.hopEdge)]
	fl := m.carveFloats(len(sum.hopComm))
	e.sum.hopComm = fl[:copy(fl, sum.hopComm):len(sum.hopComm)]
	m.heads[h] = int32(len(m.entries))
	m.entries = append(m.entries, e)
}

// carveInts returns k fresh ints from the current storage chunk.
func (m *allocMemo) carveInts(k int) []int {
	if cap(m.ints)-len(m.ints) < k {
		m.ints = make([]int, 0, max(k, memoArenaChunk))
	}
	n := len(m.ints)
	m.ints = m.ints[:n+k]
	return m.ints[n : n+k : n+k]
}

// carveFloats returns k fresh float64s from the current storage chunk.
func (m *allocMemo) carveFloats(k int) []float64 {
	if cap(m.floats)-len(m.floats) < k {
		m.floats = make([]float64, 0, max(k, memoArenaChunk))
	}
	n := len(m.floats)
	m.floats = m.floats[:n+k]
	return m.floats[n : n+k : n+k]
}
