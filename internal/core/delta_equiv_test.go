package core

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// The randomized equivalence harness for incremental query maintenance:
// every sub-test interleaves small edge deltas, larger batches, and one
// structural event family (rebalancer migrations, disk placement,
// checkpoint restore + merge, WAL crash/recover cycles), querying after
// every step and asserting the engine's partition matches a parity-map
// reference computed from scratch. The point is that a delta query — the
// cached forest plus a re-solve of only the dirtied components — is
// indistinguishable from a full Boruvka no matter which apply path set
// the dirty bits.

// equivHarness drives one engine against an exact parity reference.
type equivHarness struct {
	t       *testing.T
	eng     *Engine
	n       uint32
	rng     *rand.Rand
	present map[stream.Edge]bool
	// deltaTotal carries DeltaQueries counts across engine replacements
	// (checkpoint restores, crash recoveries) so the vacuity check sees
	// the whole run, not just the last engine's life.
	deltaTotal uint64
	// diffs counts the delta queries that materialized a before-image diff.
	diffs int
}

// retire accumulates the outgoing engine's counters before a replacement.
func (h *equivHarness) retire() {
	h.deltaTotal += h.eng.Stats().DeltaQueries
}

// randEdge picks a random normalized edge; with skew set, one endpoint is
// drawn from a small hot range so a few shard slices absorb most pushes
// (the rebalancer's trigger condition).
func (h *equivHarness) randEdge(skew bool) stream.Edge {
	for {
		var u uint32
		if skew {
			u = uint32(h.rng.Uint64N(uint64(h.n / 8)))
		} else {
			u = uint32(h.rng.Uint64N(uint64(h.n)))
		}
		v := uint32(h.rng.Uint64N(uint64(h.n)))
		eg := stream.Edge{U: u, V: v}.Normalize()
		if eg.U != eg.V {
			return eg
		}
	}
}

// toggle applies k random edge toggles through the public insert/delete
// API and mirrors them in the parity map.
func (h *equivHarness) toggle(k int, skew bool) {
	h.t.Helper()
	for i := 0; i < k; i++ {
		eg := h.randEdge(skew)
		if h.present[eg] {
			delete(h.present, eg)
			if err := h.eng.DeleteEdge(eg.U, eg.V); err != nil {
				h.t.Fatal(err)
			}
		} else {
			h.present[eg] = true
			if err := h.eng.InsertEdge(eg.U, eg.V); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

// check queries the engine and compares its partition against the exact
// reference over the parity map.
func (h *equivHarness) check() {
	h.t.Helper()
	edges := make([]stream.Edge, 0, len(h.present))
	for eg := range h.present {
		edges = append(edges, eg)
	}
	deltas := h.eng.Stats().DeltaQueries
	checkAgainstExact(h.t, h.eng, h.n, edges)
	if h.eng.Stats().DeltaQueries > deltas && ranDiff(h.eng) {
		h.diffs++
	}
}

// step runs one randomized step: usually a small delta (the incremental
// path's bread and butter), sometimes a burst past the dirty-fraction
// threshold (forcing the documented fallback), always followed by a
// query-and-compare.
func (h *equivHarness) step(skew bool) {
	h.t.Helper()
	switch h.rng.Uint64N(10) {
	case 0, 1:
		h.toggle(12+int(h.rng.Uint64N(30)), skew) // burst: over threshold
	default:
		h.toggle(1+int(h.rng.Uint64N(3)), skew) // small delta
	}
	h.check()
}

// requireDeltas fails the harness if no incremental query ever ran — the
// equivalence assertions would be vacuous.
func (h *equivHarness) requireDeltas() {
	h.t.Helper()
	st := h.eng.Stats()
	if st.DeltaQueries+h.deltaTotal == 0 {
		h.t.Fatalf("no delta queries ran (fallbacks=%d): harness is vacuous", st.DeltaFallbacks)
	}
}

func TestDeltaQueryEquivalenceRebalanced(t *testing.T) {
	t.Parallel()
	const n = 128
	eng, err := NewEngine(Config{
		NumNodes: n, Seed: 11, Shards: 4, Workers: 4,
		Buffering: BufferNone, // apply immediately so every step's query sees its toggles
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(11, 1)), present: map[stream.Edge]bool{}}
	for i := 0; i < 150; i++ {
		h.step(true) // skewed stream: migrations move applies across shards
	}
	h.requireDeltas()
}

// TestDeltaQueryEquivalenceDisk runs the harness on out-of-core engines
// in every write-back cache regime: the default cache (everything
// resident), one resident group per shard (before-images are captured on
// miss fills, and the query scan reads current bytes back off the device
// after evictions), no cache at all (no images: every affected component
// re-solves in full), and an image budget smaller than some deltas' dirty
// sets (the un-imaged nodes demote their components mid-delta).
func TestDeltaQueryEquivalenceDisk(t *testing.T) {
	t.Parallel()
	const n = 128
	base := Config{
		NumNodes: n, Seed: 23, Shards: 2, Workers: 2,
		SketchesOnDisk: true, Buffering: BufferNone,
	}
	slot := int64(slotSizeOf(t, base))
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		npg        int
		// diff: the before-image diff path must have run. exhaust: every
		// fifth step dirties more nodes than the image budget holds while
		// staying under the fallback threshold.
		diff, exhaust bool
	}{
		{name: "default-cache", diff: true},
		// Groups of 8 and room for one per shard, with a 6-image budget.
		{name: "one-group-per-shard", cacheBytes: 24 * slot, npg: 8, diff: true},
		{name: "uncached", cacheBytes: -1},
		// A 4-image budget against 8–12-node deltas.
		{name: "image-budget-exhausted", cacheBytes: 16 * slot, diff: true, exhaust: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.CacheBytes, cfg.NodesPerGroup = tc.cacheBytes, tc.npg
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			h := &equivHarness{t: t, eng: eng, n: n,
				rng: rand.New(rand.NewPCG(23, 2)), present: map[stream.Edge]bool{}}
			exhausted := 0
			for i := 0; i < 60; i++ {
				if !tc.exhaust || i%5 != 4 {
					h.step(false)
					continue
				}
				before := eng.Stats()
				h.toggle(4+int(h.rng.Uint64N(3)), false) // 8–12 dirty nodes: under the 10% threshold
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
				if eng.beforeNodes.Load() == eng.beforeLimit {
					exhausted++
				}
				h.check()
				if after := eng.Stats(); after.DeltaQueries != before.DeltaQueries+1 {
					t.Fatalf("step %d: over-budget delta did not run incrementally (fallbacks %d -> %d)",
						i, before.DeltaFallbacks, after.DeltaFallbacks)
				}
			}
			h.requireDeltas()
			st := eng.Stats()
			switch {
			case tc.diff && h.diffs == 0:
				t.Fatalf("no delta query materialized a before-image diff (deltas=%d suspect=%d)",
					st.DeltaQueries, st.SuspectDeltaQueries)
			case tc.diff && st.SuspectDeltaQueries >= st.DeltaQueries:
				t.Fatalf("every delta query was suspect (deltas=%d suspect=%d)", st.DeltaQueries, st.SuspectDeltaQueries)
			case !tc.diff && (h.diffs != 0 || st.BeforeImageBytes != 0):
				t.Fatalf("uncached engine captured before-images (%d diff queries, %d bytes)", h.diffs, st.BeforeImageBytes)
			}
			if tc.npg > 0 && (st.SketchCache.Evictions == 0 || st.SketchCache.CachedGroups > cfg.Shards) {
				t.Fatalf("cache held %d groups with %d evictions, want one per shard", st.SketchCache.CachedGroups, st.SketchCache.Evictions)
			}
			if tc.exhaust && exhausted == 0 {
				t.Fatal("no delta ran with the image budget exhausted")
			}
		})
	}
}

// slotSizeOf returns the serialized node-slot size of cfg's sketch
// geometry.
func slotSizeOf(t *testing.T, cfg Config) int {
	t.Helper()
	cfg.SketchesOnDisk = false
	probe, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	return probe.slotSize
}

// ranDiff reports whether e's last full query materialized some node from
// its before-image diff.
func ranDiff(e *Engine) bool {
	return e.qs != nil && slices.Contains(e.qs.material, matDiff)
}

// TestDiskDeltaQueryReadsNoDevice pins the disk-mode delta I/O contract:
// after a trickle that demotes no component, with every group resident in
// the write-back cache, the delta query re-certifies the affected
// components from their dirty members' cached sketches and before-images
// alone — zero device block reads.
func TestDiskDeltaQueryReadsNoDevice(t *testing.T) {
	const n = 128
	eng, err := NewEngine(Config{
		NumNodes: n, Seed: 29, Shards: 2, Workers: 2,
		SketchesOnDisk: true, Buffering: BufferNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Four paths of 32 nodes: every node is touched, so every group is
	// resident.
	var edges []stream.Edge
	for u := uint32(0); u < n; u++ {
		if u%32 != 31 {
			mustUpdate(t, eng, u, u+1)
			edges = append(edges, stream.Edge{U: u, V: u + 1})
		}
	}
	checkAgainstExact(t, eng, n, edges) // cold: caches the baseline
	if st := eng.Stats(); st.SketchCache.CachedGroups != eng.store.NumGroups() {
		t.Fatalf("%d of %d groups resident, want all", st.SketchCache.CachedGroups, eng.store.NumGroups())
	}

	// New edges only (no forest edge can lose both endpoints), one joining
	// two paths and one inside a path.
	for _, eg := range []stream.Edge{{U: 5, V: 40}, {U: 70, V: 90}} {
		mustUpdate(t, eng, eg.U, eg.V)
		edges = append(edges, eg)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	checkAgainstExact(t, eng, n, edges)
	after := eng.Stats()
	if after.DeltaQueries != before.DeltaQueries+1 || after.SuspectDeltaQueries != before.SuspectDeltaQueries {
		t.Fatalf("trickle query: deltas %d -> %d, suspect %d -> %d; want one non-suspect delta",
			before.DeltaQueries, after.DeltaQueries, before.SuspectDeltaQueries, after.SuspectDeltaQueries)
	}
	if !ranDiff(eng) {
		t.Fatal("trickle query did not materialize before-image diffs")
	}
	if got := after.SketchIO.ReadBlocks - before.SketchIO.ReadBlocks; got != 0 {
		t.Fatalf("non-suspect delta query read %d device blocks, want 0", got)
	}
}

// TestBeforeImagesNeedABaseline checks that before-images are captured
// only once a query result is cached: a bulk load with no query holds
// none, in RAM or on disk. After a baseline exists a trickle captures,
// Stats reports the images (also in MemoryBytes), and repeated bursts
// past the capture limit keep the live images plus the retired buffers
// within twice the limit.
func TestBeforeImagesNeedABaseline(t *testing.T) {
	const n = 128
	for _, disk := range []bool{false, true} {
		eng, err := NewEngine(Config{
			NumNodes: n, Seed: 37, Shards: 2, Workers: 2,
			SketchesOnDisk: disk, Buffering: BufferNone,
		})
		if err != nil {
			t.Fatal(err)
		}
		for u := uint32(0); u+1 < n; u++ {
			mustUpdate(t, eng, u, u+1)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.BeforeImageBytes != 0 {
			t.Fatalf("disk=%v: bulk load with no query holds %d bytes of before-images", disk, st.BeforeImageBytes)
		}
		if _, _, err := eng.ConnectedComponents(); err != nil {
			t.Fatal(err)
		}
		mustUpdate(t, eng, 3, 77)
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		slot := int64(eng.slotSize)
		st := eng.Stats()
		if st.BeforeImageBytes != 2*slot {
			t.Fatalf("disk=%v: trickle holds %d bytes of before-images, want 2 slots (%d)", disk, st.BeforeImageBytes, 2*slot)
		}
		base := st.MemoryBytes - st.BeforeImageBytes
		for round := 0; round < 3; round++ {
			for u := uint32(0); u < n/2; u++ { // dirties every node, past the limit
				mustUpdate(t, eng, u, u+n/2)
			}
			if _, _, err := eng.ConnectedComponents(); err != nil {
				t.Fatal(err)
			}
		}
		st = eng.Stats()
		if limit := 2 * int64(eng.beforeLimit) * slot; st.BeforeImageBytes > limit {
			t.Fatalf("disk=%v: %d bytes of before-images held, want at most %d", disk, st.BeforeImageBytes, limit)
		}
		if st.MemoryBytes-st.BeforeImageBytes != base {
			t.Fatalf("disk=%v: MemoryBytes does not account the before-images", disk)
		}
		eng.Close()
	}
}

// TestDeltaQueryEquivalenceCheckpoint interleaves deltas with checkpoint
// round trips (restore forgets the cache: next query is cold) and
// checkpoint merges (XOR of another engine's state: dirty-everything, so
// the next query must fall back to a full run, never serve a stale
// baseline).
func TestDeltaQueryEquivalenceCheckpoint(t *testing.T) {
	t.Parallel()
	const n = 128
	cfg := Config{NumNodes: n, Seed: 31, Shards: 2, Workers: 2, Buffering: BufferNone}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(31, 3)), present: map[stream.Edge]bool{}}
	defer func() { h.eng.Close() }()

	for i := 0; i < 120; i++ {
		h.step(false)
		switch {
		case i%40 == 19:
			// Round trip: serialize, restore into a fresh engine, drop the old.
			var buf bytes.Buffer
			if err := h.eng.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadCheckpoint(&buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h.retire()
			h.eng.Close()
			h.eng = back
			h.check()
		case i%40 == 39:
			// Merge a side engine's sketches in. XOR semantics: edges the
			// side engine holds toggle in the merged graph, so the parity
			// map toggles the same set.
			side, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				eg := h.randEdge(false)
				if err := side.InsertEdge(eg.U, eg.V); err != nil {
					t.Fatal(err)
				}
				if h.present[eg] {
					delete(h.present, eg)
				} else {
					h.present[eg] = true
				}
			}
			var buf bytes.Buffer
			if err := side.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			side.Close()
			if err := h.eng.MergeCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			h.check()
		}
	}
	h.requireDeltas()
}

// TestDeltaQueryEquivalenceWAL interleaves deltas with full
// crash/recover cycles: the WAL replays through the normal batch path,
// so the recovered engine's first query is cold and subsequent deltas
// pick up from its fresh cache.
func TestDeltaQueryEquivalenceWAL(t *testing.T) {
	t.Parallel()
	const n = 128
	st := wal.NewMemStorage(64)
	cfg := Config{
		NumNodes: n, Seed: 41, Shards: 2, Workers: 2, Buffering: BufferNone,
		WAL: true, WALStorage: st, WALSegmentBytes: 1 << 14,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(41, 4)), present: map[stream.Edge]bool{}}
	defer func() { h.eng.Close() }()

	for i := 0; i < 90; i++ {
		h.step(false)
		if i%30 == 29 {
			crashed := st.Crash(nil) // FsyncBatch: every acked toggle survives
			h.retire()
			h.eng.Close()
			rcfg := cfg
			rcfg.WALStorage = crashed
			rec, _, err := Recover("", rcfg)
			if err != nil {
				t.Fatalf("Recover at step %d: %v", i, err)
			}
			st = crashed
			h.eng = rec
			h.check()
		}
	}
	h.requireDeltas()
}

// TestDeltaStatsCounters pins the observable counter semantics: small
// deltas count as DeltaQueries, an over-threshold burst counts as a
// fallback, and DirtyNodes reports the union of the per-shard vectors
// (an edge toggle dirties both endpoints; re-toggling adds nothing).
func TestDeltaStatsCounters(t *testing.T) {
	const n = 64
	eng, err := NewEngine(Config{NumNodes: n, Seed: 5, Shards: 2, Workers: 2, Buffering: BufferNone})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mustUpdate(t, eng, 0, 1)
	if _, _, err := eng.ConnectedComponents(); err != nil { // cold: no prior cache
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.DeltaQueries != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("cold query counted as delta: %+v", st)
	}

	mustUpdate(t, eng, 2, 3)
	mustUpdate(t, eng, 2, 3)            // same edge again: same two dirty nodes
	if err := eng.Drain(); err != nil { // Stats does not drain; the workers must land first
		t.Fatal(err)
	}
	if got := eng.Stats().DirtyNodes; got != 2 {
		t.Fatalf("DirtyNodes = %d, want 2 (union, not sum)", got)
	}
	if _, _, err := eng.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DeltaQueries != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("after small delta: DeltaQueries=%d DeltaFallbacks=%d, want 1/0",
			st.DeltaQueries, st.DeltaFallbacks)
	}
	if st.DirtyNodes != 0 {
		t.Fatalf("DirtyNodes = %d after successful query, want 0", st.DirtyNodes)
	}

	// Dirty more than DeltaQueryMaxDirtyFrac of the nodes: fallback.
	for u := uint32(0); u < n/2; u += 2 {
		mustUpdate(t, eng, u, u+1)
	}
	if _, _, err := eng.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DeltaFallbacks != 1 {
		t.Fatalf("over-threshold query: DeltaFallbacks=%d, want 1", st.DeltaFallbacks)
	}

	// A query on a quiet engine with zero dirty nodes that misses the
	// epoch fast path is still incremental (trivially: carry everything).
	if _, err := eng.SpanningForest(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptQueryBaseline covers the coordinator-refresh seeding path: a
// fresh engine rebuilt from checkpoint merges adopts the outgoing
// engine's cached result, and its next query runs the delta path over
// exactly the nodes whose sketches differ.
func TestAdoptQueryBaseline(t *testing.T) {
	const n = 64
	cfg := Config{NumNodes: n, Seed: 9, Workers: 2, Buffering: BufferNone}
	old, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	var edges []stream.Edge
	for u := uint32(0); u < 30; u++ {
		mustUpdate(t, old, u, u+1)
		edges = append(edges, stream.Edge{U: u, V: u + 1})
	}
	if _, _, err := old.ConnectedComponents(); err != nil { // cache a baseline
		t.Fatal(err)
	}

	// Rebuild "the next refresh": same state plus a couple of new edges,
	// arriving via checkpoint merge (which marks exactly the non-empty
	// incoming slots dirty).
	var buf bytes.Buffer
	if err := old.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.MergeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, fresh, 40, 41)
	edges = append(edges, stream.Edge{U: 40, V: 41})

	// The merged checkpoint's non-empty slots are nodes 0..30 (31 nodes);
	// the direct update dirties 40 and 41 on top.
	if err := fresh.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DirtyNodes != 33 {
		t.Fatalf("pre-adoption DirtyNodes = %d, want 33 (merge marks exactly the non-empty slots)", st.DirtyNodes)
	}
	if !fresh.AdoptQueryBaseline(old) {
		t.Fatal("AdoptQueryBaseline refused compatible engines")
	}
	if st := fresh.Stats(); st.DirtyNodes != 2 {
		t.Fatalf("post-adoption DirtyNodes = %d, want 2 (only the new edge's endpoints differ)", st.DirtyNodes)
	}
	checkAgainstExact(t, fresh, n, edges)
	if st := fresh.Stats(); st.DeltaQueries != 1 {
		t.Fatalf("adopted baseline query: DeltaQueries=%d, want 1", st.DeltaQueries)
	}

	// Geometry mismatch and disk placement are refused without touching state.
	other, err := NewEngine(Config{NumNodes: n, Seed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if fresh.AdoptQueryBaseline(other) {
		t.Fatal("adopted a baseline with a different seed")
	}
	if fresh.AdoptQueryBaseline(nil) || fresh.AdoptQueryBaseline(fresh) {
		t.Fatal("adopted nil or self")
	}
}

// TestDeltaDisabledAblation pins the NoDeltaQuery knob: with it set the
// engine answers identically but never takes the incremental path.
func TestDeltaDisabledAblation(t *testing.T) {
	const n = 64
	eng, err := NewEngine(Config{NumNodes: n, Seed: 13, Buffering: BufferNone, NoDeltaQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var edges []stream.Edge
	for i := 0; i < 6; i++ {
		u := uint32(i * 2)
		mustUpdate(t, eng, u, u+1)
		edges = append(edges, stream.Edge{U: u, V: u + 1})
		checkAgainstExact(t, eng, n, edges)
	}
	if st := eng.Stats(); st.DeltaQueries != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("NoDeltaQuery engine took the delta path: %+v", st)
	}
}
