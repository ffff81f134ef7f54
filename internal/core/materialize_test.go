package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/stream"
)

// refSampleRound is the reference RAM materialization the column-lazy
// sampler must reproduce bit for bit: every live root merges all columns
// of every contributing member's round-r sketch (plus the before-image of
// a matDiff member) into a fresh sketch of its own, then runs the full
// Query, one root after another.
func refSampleRound(e *Engine, q *querySession, round int) (cands []candidate, emptied []uint32, err error) {
	roundOff := round * e.sketchSize
	var view cubesketch.Sketch
	for i, root := range q.roots {
		acc := cubesketch.New(e.vecLen, e.cfg.Columns, e.roundSeed(round))
		for _, node := range q.order[q.starts[i]:q.starts[i+1]] {
			sh, local := e.shardOf(node)
			sh.slab.View(local, round, &view)
			if err := acc.Merge(&view); err != nil {
				return nil, nil, err
			}
			if q.material != nil && q.material[node] == matDiff {
				if err := acc.MergeBinary(q.before[node][roundOff : roundOff+e.sketchSize]); err != nil {
					return nil, nil, err
				}
			}
		}
		idx, qerr := acc.Query()
		switch {
		case qerr == nil:
			edge, ierr := stream.IndexEdge(uint64(e.cfg.NumNodes), idx)
			if ierr == nil {
				cands = append(cands, candidate{root: root, edge: edge})
			}
		case errors.Is(qerr, cubesketch.ErrEmpty):
			emptied = append(emptied, root)
		}
	}
	return cands, emptied, nil
}

// identityHarness drives two engines built from one configuration through
// the same updates: eng samples with the engine's own sampleRound, ref
// with refSampleRound. Their forests and representatives must agree
// exactly after every query.
type identityHarness struct {
	t        *testing.T
	seed     uint64
	n        uint32
	rng      *rand.Rand
	eng, ref *Engine
	present  map[stream.Edge]bool
}

func (h *identityHarness) toggle(eg stream.Edge) {
	h.t.Helper()
	eg = eg.Normalize()
	op := h.eng.InsertEdge
	refOp := h.ref.InsertEdge
	if h.present[eg] {
		op, refOp = h.eng.DeleteEdge, h.ref.DeleteEdge
		delete(h.present, eg)
	} else {
		h.present[eg] = true
	}
	if err := op(eg.U, eg.V); err != nil {
		h.t.Fatalf("seed %d: %v", h.seed, err)
	}
	if err := refOp(eg.U, eg.V); err != nil {
		h.t.Fatalf("seed %d: %v", h.seed, err)
	}
}

// compare runs one query on both engines and fails, naming the seed and
// step, unless forests, representatives and counts are bit-identical and
// the partition is the exact one.
func (h *identityHarness) compare(step string) []stream.Edge {
	h.t.Helper()
	forest, err := h.eng.SpanningForest()
	if err != nil {
		h.t.Fatalf("seed %d %s: SpanningForest: %v", h.seed, step, err)
	}
	want, err := h.ref.SpanningForest()
	if err != nil {
		h.t.Fatalf("seed %d %s: reference SpanningForest: %v", h.seed, step, err)
	}
	if !slices.Equal(forest, want) {
		h.t.Fatalf("seed %d %s: forest differs from the full-materialization reference\n got  %v\n want %v", h.seed, step, forest, want)
	}
	rep, count, err := h.eng.ConnectedComponents()
	if err != nil {
		h.t.Fatalf("seed %d %s: %v", h.seed, step, err)
	}
	wantRep, wantCount, err := h.ref.ConnectedComponents()
	if err != nil {
		h.t.Fatalf("seed %d %s: %v", h.seed, step, err)
	}
	if count != wantCount || !slices.Equal(rep, wantRep) {
		h.t.Fatalf("seed %d %s: representatives differ from the reference (count %d, want %d)", h.seed, step, count, wantCount)
	}
	exactRep, exactCount := exactComponents(h.n, h.edges())
	if count != exactCount || !samePartition(rep, exactRep) {
		h.t.Fatalf("seed %d %s: partition differs from the exact one (count %d, want %d)", h.seed, step, count, exactCount)
	}
	return forest
}

func (h *identityHarness) edges() []stream.Edge {
	out := make([]stream.Edge, 0, len(h.present))
	for eg := range h.present {
		out = append(out, eg)
	}
	return out
}

// plant builds clusters of mixed sizes — one giant cluster holding about
// half the nodes, so final certification rounds have a root big enough to
// be split across the shard goroutines — as random spanning trees plus a
// few extra intra-cluster edges.
func (h *identityHarness) plant() {
	perm := h.rng.Perm(int(h.n))
	for lo := 0; lo < len(perm); {
		size := 1 + h.rng.IntN(12)
		if lo == 0 {
			size = len(perm) / 2
		}
		hi := min(lo+size, len(perm))
		cl := perm[lo:hi]
		for i := 1; i < len(cl); i++ {
			h.toggle(stream.Edge{U: uint32(cl[i]), V: uint32(cl[h.rng.IntN(i)])})
		}
		for k := 0; k < len(cl)/4; k++ {
			u, v := cl[h.rng.IntN(len(cl))], cl[h.rng.IntN(len(cl))]
			if u != v && !h.present[stream.Edge{U: uint32(u), V: uint32(v)}.Normalize()] {
				h.toggle(stream.Edge{U: uint32(u), V: uint32(v)})
			}
		}
		lo = hi
	}
}

// randNonForest returns a random non-loop edge that is not in forest.
func (h *identityHarness) randNonForest(forest map[stream.Edge]bool) stream.Edge {
	for {
		eg := stream.Edge{U: uint32(h.rng.IntN(int(h.n))), V: uint32(h.rng.IntN(int(h.n)))}.Normalize()
		if eg.U != eg.V && !forest[eg] {
			return eg
		}
	}
}

// wideDiff toggles 40 edges among a set of nodes no forest edge
// joins, so many nodes turn dirty without any component turning suspect:
// a diff-only re-certification with dozens of members.
func (h *identityHarness) wideDiff(forest []stream.Edge) {
	adj := make(map[uint32][]uint32)
	for _, eg := range forest {
		adj[eg.U] = append(adj[eg.U], eg.V)
		adj[eg.V] = append(adj[eg.V], eg.U)
	}
	in := make(map[uint32]bool)
	var set []uint32
	for _, v := range h.rng.Perm(int(h.n)) {
		u := uint32(v)
		if !slices.ContainsFunc(adj[u], func(w uint32) bool { return in[w] }) {
			in[u] = true
			set = append(set, u)
		}
		if len(set) == 80 {
			break
		}
	}
	for i := 0; i+1 < len(set); i += 2 {
		h.toggle(stream.Edge{U: set[i], V: set[i+1]})
	}
}

// TestColumnLazyMatchesFullMaterialization checks that column-lazy,
// member-balanced materialization answers every query — cold, delta with
// suspect (forest-edge deletion) components, delta with diff-only
// re-certification, and over-threshold fallbacks — with exactly the forest
// and representatives of the per-root full-column algorithm. Seeds are
// fixed; a failure names its seed, and `go test -run` on the subtest name
// replays it.
func TestColumnLazyMatchesFullMaterialization(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				runIdentity(t, shards, seed)
			})
		}
	}
}

func runIdentity(t *testing.T, shards int, seed uint64) {
	const n = 256
	// The raised dirty threshold lets a diff-only delta query carry enough
	// members for its component to be split across goroutines.
	cfg := Config{NumNodes: n, Seed: seed, Shards: shards, Workers: shards, Buffering: BufferNone, NoRebalance: true, DeltaQueryMaxDirtyFrac: 0.35}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.testSampleRound = func(q *querySession, round int) ([]candidate, []uint32, error) {
		return refSampleRound(ref, q, round)
	}
	h := &identityHarness{t: t, seed: seed, n: n, rng: rand.New(rand.NewPCG(seed, 0x1d)), eng: eng, ref: ref, present: map[stream.Edge]bool{}}
	h.plant()
	forest := h.compare("cold")
	for step := 0; step < 40; step++ {
		inForest := make(map[stream.Edge]bool, len(forest))
		for _, eg := range forest {
			inForest[eg] = true
		}
		var kind string
		switch h.rng.IntN(9) {
		case 0, 1, 2:
			// Delete a forest edge: its component turns suspect.
			kind = "forest-trickle"
			h.toggle(forest[h.rng.IntN(len(forest))])
			if h.rng.IntN(2) == 0 {
				h.toggle(h.randNonForest(inForest))
			}
		case 6:
			kind = "wide-diff-trickle"
			h.wideDiff(forest)
		case 7:
			kind = "burst"
			for k := 0; k < n/4; k++ {
				h.toggle(h.randNonForest(inForest))
			}
		default:
			// One non-forest toggle dirties two nodes that no forest edge
			// joins: the affected components re-certify from diffs alone.
			kind = "diff-trickle"
			h.toggle(h.randNonForest(inForest))
		}
		forest = h.compare(fmt.Sprintf("step %d (%s)", step, kind))
	}
	st := eng.Stats()
	if st.SuspectDeltaQueries == 0 || st.DeltaQueries <= st.SuspectDeltaQueries || st.ColumnZeroRoots == 0 {
		t.Fatalf("seed %d: harness is vacuous: %d delta queries, %d suspect, %d column-0 roots",
			seed, st.DeltaQueries, st.SuspectDeltaQueries, st.ColumnZeroRoots)
	}
}

// allocGraph builds a drained 1,024-node RAM engine over a random graph
// with its cold query already answered when warm is set.
func allocGraph(t *testing.T) (*Engine, *rand.Rand) {
	t.Helper()
	const n = 1024
	eng, err := NewEngine(Config{NumNodes: n, Seed: 5, Shards: 2, Workers: 2, Buffering: BufferNone, NoRebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 4*n; i++ {
		u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
		if u != v {
			if err := eng.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return eng, rng
}

// allocated returns the bytes fn allocated, process-wide.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdQueryAllocatesNoArena guards the arena-free RAM materialization:
// a cold query must allocate less than one single-round arena of every
// node's sketch, which the per-round arena alone used to cost.
func TestColdQueryAllocatesNoArena(t *testing.T) {
	eng, _ := allocGraph(t)
	defer eng.Close()
	arena := uint64(eng.cfg.NumNodes) * uint64(cubesketch.New(eng.vecLen, eng.cfg.Columns, 0).Bytes())
	var qerr error
	got := allocated(func() { _, qerr = eng.SpanningForest() })
	if qerr != nil {
		t.Fatal(qerr)
	}
	if got >= arena {
		t.Fatalf("cold query allocated %d bytes, want < %d (one round arena)", got, arena)
	}
}

// TestTrickleReusesBeforeImages guards the before-image free lists: once a
// trickle round has retired its images into the pool, a smaller trickle
// apply plus its delta query allocates no new before-image slot.
func TestTrickleReusesBeforeImages(t *testing.T) {
	eng, rng := allocGraph(t)
	defer eng.Close()
	n := int(eng.cfg.NumNodes)
	trickle := func(edges int) {
		for i := 0; i < edges; i++ {
			u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
			if u != v {
				if err := eng.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	query := func() {
		if _, err := eng.SpanningForest(); err != nil {
			t.Fatal(err)
		}
	}
	query()
	trickle(40) // warm the pool: up to 80 images retire into it
	query()
	before := eng.Stats().DeltaQueries
	const edges = 10
	var dirty uint64
	got := allocated(func() {
		trickle(edges)
		dirty = eng.Stats().DirtyNodes
		query()
	})
	if eng.Stats().DeltaQueries != before+1 {
		t.Fatal("the measured query did not take the delta path")
	}
	if slots := dirty * uint64(eng.slotSize); got >= slots {
		t.Fatalf("trickle of %d dirty nodes allocated %d bytes, want < %d (its before-image slots)", dirty, got, slots)
	}
}
