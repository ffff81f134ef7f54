package cubesketch

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// randomSketch returns a sketch of n with k random toggles applied.
func randomSketch(rng *rand.Rand, n uint64, seed uint64, k int) *Sketch {
	s := New(n, 0, seed)
	for i := 0; i < k; i++ {
		s.Update(rng.Uint64N(n))
	}
	return s
}

// TestQueryColumnZeroHitEqualsQuery checks the invariant the column-lazy
// query path rests on: whenever column 0 alone yields an index, it is the
// index Query returns for the whole sketch.
func TestQueryColumnZeroHitEqualsQuery(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	hits, misses := 0, 0
	for trial := 0; trial < 2000; trial++ {
		s := randomSketch(rng, 1<<16, 9, rng.IntN(64))
		idx, err := s.QueryColumn(0)
		if err != nil {
			misses++
			if err != ErrEmpty && err != ErrFailed {
				t.Fatalf("trial %d: QueryColumn(0) returned %v", trial, err)
			}
			continue
		}
		hits++
		want, qerr := s.Query()
		if qerr != nil || want != idx {
			t.Fatalf("trial %d: QueryColumn(0) = %d, Query() = %d, %v", trial, idx, want, qerr)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("vacuous: %d column-0 hits, %d misses", hits, misses)
	}
	if _, err := New(16, 3, 1).QueryColumn(3); err == nil {
		t.Fatal("QueryColumn past the last column succeeded")
	}
}

// TestMergeColumnsSplitEqualsMerge checks that merging [0,1) and then
// [1,C) — as a sketch or serialized — equals one full Merge, and that an
// out-of-range column range is rejected.
func TestMergeColumnsSplitEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		a := randomSketch(rng, 1<<12, 21, 40)
		b := randomSketch(rng, 1<<12, 21, 40)
		want := a.Clone()
		if err := want.Merge(b); err != nil {
			t.Fatal(err)
		}
		split := a.Clone()
		if err := split.MergeColumns(b, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := split.MergeColumns(b, 1, split.Columns()); err != nil {
			t.Fatal(err)
		}
		buf, _ := b.MarshalBinary()
		binSplit := a.Clone()
		if err := binSplit.MergeBinaryColumns(buf, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := binSplit.MergeBinaryColumns(buf, 1, binSplit.Columns()); err != nil {
			t.Fatal(err)
		}
		binFull := a.Clone()
		if err := binFull.MergeBinary(buf); err != nil {
			t.Fatal(err)
		}
		wantBytes, _ := want.MarshalBinary()
		for name, got := range map[string]*Sketch{"MergeColumns": split, "MergeBinaryColumns": binSplit, "MergeBinary": binFull} {
			gotBytes, _ := got.MarshalBinary()
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("trial %d: split %s differs from Merge", trial, name)
			}
		}
	}
	s, o := New(64, 4, 1), New(64, 4, 1)
	for _, r := range [][2]int{{-1, 1}, {0, 5}, {3, 2}} {
		if err := s.MergeColumns(o, r[0], r[1]); err == nil {
			t.Fatalf("MergeColumns(%d,%d) succeeded", r[0], r[1])
		}
	}
}

// TestMergeColumnsResetColumns checks that ResetColumns clears exactly
// the columns a partial merge wrote.
func TestMergeColumnsResetColumns(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	src := randomSketch(rng, 1<<10, 2, 30)
	acc := New(1<<10, 0, 2)
	if err := acc.MergeColumns(src, 0, 1); err != nil {
		t.Fatal(err)
	}
	acc.ResetColumns(0, 1)
	if !acc.IsZero() {
		t.Fatal("ResetColumns(0,1) left column 0 nonzero")
	}
}

// TestMergeBinaryColumnsRejectsBadInput checks that a short buffer or a
// header for other parameters or another seed is an error, never a panic
// or a partial merge.
func TestMergeBinaryColumnsRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	s := randomSketch(rng, 1<<10, 4, 20)
	buf, _ := s.MarshalBinary()
	for name, other := range map[string]*Sketch{
		"seed":    New(1<<10, 0, 5),
		"n":       New(1<<11, 0, 4),
		"columns": New(1<<10, 3, 4),
	} {
		ob, _ := other.MarshalBinary()
		acc := New(1<<10, 0, 4)
		err := acc.MergeBinaryColumns(ob, 0, 1)
		if err == nil {
			t.Fatalf("mismatched %s header accepted", name)
		}
		if !acc.IsZero() {
			t.Fatalf("mismatched %s header partially merged", name)
		}
		if err := acc.MergeColumns(other, 0, 1); err == nil {
			t.Fatalf("MergeColumns with mismatched %s accepted", name)
		}
	}
	acc := New(1<<10, 0, 4)
	for _, cut := range []int{0, 16, 31, len(buf) - 1} {
		if err := acc.MergeBinaryColumns(buf[:cut], 0, 1); err == nil {
			t.Fatalf("buffer of %d bytes accepted", cut)
		}
	}
	if err := acc.MergeBinaryColumns(buf, 2, 1); err == nil {
		t.Fatal("inverted column range accepted")
	}
	if !acc.IsZero() {
		t.Fatal("a rejected merge modified the sketch")
	}
	if err := acc.MergeBinaryColumns(buf, 0, acc.Columns()); err != nil {
		t.Fatalf("valid serialized sketch rejected: %v", err)
	}
}
