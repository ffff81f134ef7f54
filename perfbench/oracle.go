package main

import (
	"math"

	"graphzeppelin/internal/bitset"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// oracle is the exact reference every timed answer is compared against:
// the current edge set as a bitset over characteristic-vector indices,
// and a DSU over that set.
//
// Rebuilding the DSU from every edge after every round would cost more
// than the rounds being timed, so the oracle keeps the DSU's spanning
// forest too. Insertions are unioned into the DSU; a deletion of a
// non-forest edge cannot split a component, because the forest still
// spans it. Only deleting a forest edge forces a rebuild from the full
// edge set. The answer is the same DSU over the same exact edge set
// either way; verifyRebuild checks that at the end of every trial.
type oracle struct {
	n       uint32
	present *bitset.Set
	forest  *bitset.Set
	d       *dsu.DSU
	pending []stream.Edge // inserted since the last sync
	stale   bool          // a forest edge was deleted
}

// newOracle builds the reference over edges, which must be distinct.
func newOracle(n uint32, edges []stream.Edge) *oracle {
	vl := stream.VectorLen(uint64(n))
	o := &oracle{n: n, present: bitset.New(vl), forest: bitset.New(vl), d: dsu.New(int(n))}
	for _, e := range edges {
		o.present.Set(stream.EdgeIndex(uint64(n), e))
	}
	o.rebuild()
	return o
}

// has reports whether edge e is in the set.
func (o *oracle) has(e stream.Edge) bool {
	return o.present.Test(stream.EdgeIndex(uint64(o.n), e))
}

// toggle flips edge e and returns the stream update that does the same.
func (o *oracle) toggle(e stream.Edge) stream.Update {
	idx := stream.EdgeIndex(uint64(o.n), e)
	if o.present.Flip(idx) {
		o.pending = append(o.pending, e)
		return stream.Update{Edge: e, Type: stream.Insert}
	}
	if o.forest.Test(idx) {
		o.stale = true
	}
	return stream.Update{Edge: e, Type: stream.Delete}
}

// rebuild recomputes the DSU and its forest from the full edge set.
func (o *oracle) rebuild() {
	o.d.Reset()
	o.forest = bitset.New(o.forest.Len())
	n := uint64(o.n)
	var u, rowStart uint64
	rowEnd := n - 1
	o.present.ForEach(func(idx uint64) bool {
		for idx >= rowEnd {
			u++
			rowStart = rowEnd
			rowEnd += n - 1 - u
		}
		v := u + 1 + (idx - rowStart)
		if _, merged := o.d.Union(uint32(u), uint32(v)); merged {
			o.forest.Set(idx)
		}
		return true
	})
	o.pending = o.pending[:0]
	o.stale = false
}

// sync brings the DSU up to date with every toggle so far.
func (o *oracle) sync() {
	if o.stale {
		o.rebuild()
		return
	}
	for _, e := range o.pending {
		idx := stream.EdgeIndex(uint64(o.n), e)
		if !o.present.Test(idx) {
			continue // inserted and deleted again since the last sync
		}
		if _, merged := o.d.Union(e.U, e.V); merged {
			o.forest.Set(idx)
		}
	}
	o.pending = o.pending[:0]
}

// matches reports whether an answer (a representative per node and a
// component count) is the exact partition: same count, and the map from
// answer representatives to reference roots is a bijection.
func (o *oracle) matches(rep []uint32, count int) bool {
	o.sync()
	if len(rep) != int(o.n) || count != o.d.Count() {
		return false
	}
	const none = math.MaxUint32
	toRef := make([]uint32, o.n)
	toAns := make([]uint32, o.n)
	for i := range toRef {
		toRef[i], toAns[i] = none, none
	}
	for v := uint32(0); v < o.n; v++ {
		r, s := rep[v], o.d.Find(v)
		if r >= o.n {
			return false
		}
		if toRef[r] == none && toAns[s] == none {
			toRef[r], toAns[s] = s, r
		} else if toRef[r] != s || toAns[s] != r {
			return false
		}
	}
	return true
}

// verifyRebuild checks that the incrementally maintained DSU agrees with
// one rebuilt from scratch over the current edge set.
func (o *oracle) verifyRebuild() bool {
	o.sync()
	incremental := make([]uint32, o.n)
	for v := range incremental {
		incremental[v] = o.d.Find(uint32(v))
	}
	count := o.d.Count()
	o.rebuild()
	return o.matches(incremental, count)
}
