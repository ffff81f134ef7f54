package core

import (
	"errors"
	"fmt"
	"sync"

	"graphzeppelin/internal/bitset"
	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// This file is the engine's query subsystem. Three design points, all in
// service of the interleaved-query workload (Figure 16) and the paper's
// storage-friendly query scan (Lemma 5):
//
//  1. Lazy per-round materialization. Boruvka round r needs only the
//     round-r supernode sketch of each still-live component, so the query
//     materializes exactly those, rebuilt from the DSU each round, instead
//     of cloning all n × Rounds sketches upfront. Components certified
//     complete (an empty cut sketch) drop out of every later round. In RAM
//     the materialization is column-lazy and arena-free: a root merges
//     only column 0 of its members' slab views into a reused per-goroutine
//     scratch sketch and samples it, paying for the other columns only on
//     a column-0 miss (Query scans column 0 first, so the answer is the
//     same). The merges are balanced by members, not roots: a root whose
//     members straddle two goroutines' ranges is built from XOR-combined
//     partials, so the giant root of a final certification round is
//     merged by every goroutine at once.
//
//  2. Sequential disk scan. In out-of-core mode each round performs one
//     coalesced ReadRange pass over the slots of still-live nodes,
//     queryScanBytes at a time, rather than one point Read per node: the
//     I/O per round is O(liveBytes/B) blocks in a handful of ops.
//
//  3. Ingest-epoch caching. The engine bumps an epoch counter on every
//     accepted update batch; a full query stores its result tagged with
//     the epoch it answered at. While the epoch is unchanged, Connected /
//     ConnectedMany / ConnectedComponents / SpanningForest are served
//     from the cached result — point queries cost O(1) between updates.
//
//  4. Incremental maintenance between epochs. When the cache is stale but
//     a previous result exists, the query consults the per-shard dirty
//     vectors the apply path maintains (engine.go): a component of the
//     cached forest with no dirty member had no incident edge toggled
//     since that result — any toggle lands a batch on both endpoints'
//     sketches, dirtying them — so its forest edges are still genuine and
//     its cut is still empty. Those components carry over wholesale. An
//     affected component whose cached forest is still intact (no forest
//     edge has both endpoints dirty, so none can have been toggled away)
//     is re-certified from its dirty members' sketch *diffs* against
//     before-images the apply path captured at first dirtying (in RAM off
//     the shard slab, on disk off the write-back cache's decoded group):
//     its cached aggregate was the zero sketch, so the diffs alone
//     reproduce its current cut — O(dirty) sketch work and, on disk,
//     reads of only the dirty nodes' slots, independent of component
//     size. Only suspect components (a forest edge possibly deleted, or a
//     dirty member without an image) split back to singletons and re-solve
//     with full materialization. Above
//     DeltaQueryMaxDirtyFrac dirty nodes (or after a checkpoint merge,
//     which dirties everything) the query falls back to the from-scratch
//     run; either way the caller sees an identical contract.

// ErrQueryFailed is returned when Boruvka emulation exhausts the per-node
// sketch rounds before every component's spanning tree is certified
// complete. The probability of this is polynomially small for the default
// depth (the paper's 5000 trials and this test suite observed zero
// failures); it becomes likely only when WithRounds is set below the
// default ⌈log2 V⌉+2. The partial forest recovered before the rounds ran
// out is still returned alongside the error: every edge in it is a
// genuine edge of the graph and the edges are acyclic, but some pair of
// connected nodes may remain in different trees. Callers wanting more
// slack raise WithRounds (depth) or WithColumns (per-round success
// probability) at construction time — the sketches are built for a fixed
// depth, so no retry with fresh randomness is possible after the fact.
var ErrQueryFailed = errors.New("core: connectivity query ran out of sketch rounds")

// queryResult is one full query's answer, tagged with the ingest epoch it
// was computed at. It is immutable once published: readers share the
// slices, so the public accessors copy anything they hand to callers that
// could mutate it.
type queryResult struct {
	epoch uint64
	// watermark is the dirty-epoch watermark: the ingest epoch whose
	// sketch state this result actually observed, at which the dirty
	// vectors were reset. Normally equal to epoch; an adopted baseline
	// (AdoptQueryBaseline) keeps its observed watermark while its epoch is
	// deliberately staled so the fast path cannot serve it.
	watermark uint64
	// delta marks a result produced by the incremental path (including a
	// zero-dirty re-tag of the previous result).
	delta  bool
	forest []stream.Edge
	rep    []uint32 // node -> component representative
	count  int      // number of components
}

// query answers the current connectivity query, from the epoch cache when
// the graph is unchanged since the last full query, and by running lazy
// Boruvka over a fresh snapshot otherwise. The returned result is shared
// and must be treated as read-only. On ErrQueryFailed the partial result
// is returned alongside the error (and is not cached).
func (e *Engine) query() (*queryResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	// Fast path: no accepted update since the cached answer — serve it
	// without quiescing the pipeline. A concurrent producer that bumps
	// the epoch right after the check linearizes after this query.
	if r := e.queryCache.Load(); r != nil && r.epoch == e.epoch.Load() {
		e.cacheHits.Add(1)
		return r, nil
	}
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return nil, err
	}
	// Producers are excluded here, so the epoch is stable; re-check the
	// cache in case another query refreshed it while we waited for the
	// lock.
	epoch := e.epoch.Load()
	if r := e.queryCache.Load(); r != nil && r.epoch == epoch {
		e.cacheHits.Add(1)
		return r, nil
	}
	res, err := e.runQueryLocked(epoch)
	if err != nil {
		return res, err
	}
	e.cacheResultLocked(res)
	return res, nil
}

// runQueryLocked answers a cache-missed query, incrementally off the
// previous cached result when the dirty set allows it and from scratch
// otherwise. The caller holds the quiesce write lock with the workers
// drained (so shard state, the dirty vectors included, is stable).
func (e *Engine) runQueryLocked(epoch uint64) (*queryResult, error) {
	prev := e.queryCache.Load()
	if !e.cfg.NoDeltaQuery && prev != nil && !e.dirtyAll.Load() {
		dirty := bitset.New(uint64(e.cfg.NumNodes))
		var nDirty uint64
		for _, sh := range e.shards {
			nDirty += sh.dirty.OrInto(dirty)
		}
		if nDirty == 0 {
			// The epoch moved but no sketch changed since prev was cached
			// (e.g. an adopted baseline whose diff came up empty): prev's
			// answer is exactly current — re-tag it at the new epoch.
			e.deltaQueries.Add(1)
			return &queryResult{
				epoch: epoch, watermark: epoch, delta: true,
				forest: prev.forest, rep: prev.rep, count: prev.count,
			}, nil
		}
		if float64(nDirty) <= e.cfg.DeltaQueryMaxDirtyFrac*float64(e.cfg.NumNodes) {
			res, ok, err := e.runDeltaBoruvka(epoch, prev, dirty)
			if err != nil {
				return nil, err
			}
			if ok {
				e.deltaQueries.Add(1)
				return res, nil
			}
			// The affected components failed to certify within the sketch
			// depth; the from-scratch run is the correctness backstop.
		}
		e.deltaFallbacks.Add(1)
	}
	return e.runBoruvka(epoch)
}

// cacheResultLocked publishes a successful query result and resets the
// dirty tracking: the result observed every change the dirty bits
// recorded, so the next query's delta starts from here. Failed results
// are never cached, which is exactly why their callers must not clear
// anything. The caller holds the quiesce write lock with the workers
// idle.
func (e *Engine) cacheResultLocked(res *queryResult) {
	e.queryCache.Store(res)
	// The before-images' baseline is superseded by res: the next first
	// dirtying of a node captures a fresh image relative to it.
	e.resetDirtyLocked()
}

// SpanningForest flushes all buffered updates and recovers a spanning
// forest of the current graph by emulating Boruvka's algorithm over the
// sketches (Figure 9): in round r, each live component queries its round-r
// supernode sketch — the XOR of its members' round-r sketches — for an
// edge leaving the component; found edges merge components. Components
// whose cut sketch is empty are complete and leave the computation.
//
// The engine's live sketches are not consumed: each round materializes its
// own supernode snapshot, so ingestion can continue afterwards (the
// interleaved query workload of Figure 16). Safe to call from any
// goroutine, even with ingestion in flight: a full query holds the quiesce
// write lock and answers over a consistent cut containing every update
// whose ingest call returned before the query began; a cached query (no
// update since the last full one) is served without quiescing at all.
//
// On ErrQueryFailed the partial forest recovered so far is returned with
// the error; see ErrQueryFailed for its exact guarantees. Returns
// ErrClosed after Close.
func (e *Engine) SpanningForest() ([]stream.Edge, error) {
	r, err := e.query()
	if r == nil {
		return nil, err
	}
	forest := make([]stream.Edge, len(r.forest))
	copy(forest, r.forest)
	return forest, err
}

// ConnectedComponents returns, for every node, a component representative,
// plus the number of components. Served from the epoch cache (no sketch
// work) when the graph is unchanged since the last full query.
func (e *Engine) ConnectedComponents() (rep []uint32, count int, err error) {
	r, err := e.query()
	if err != nil {
		return nil, 0, err
	}
	rep = make([]uint32, len(r.rep))
	copy(rep, r.rep)
	return rep, r.count, nil
}

// Connected reports whether nodes u and v are currently in the same
// component. Between updates it is O(1): the cached representatives of the
// last full query answer directly. Both ids must be < NumNodes.
func (e *Engine) Connected(u, v uint32) (bool, error) {
	if u >= e.cfg.NumNodes || v >= e.cfg.NumNodes {
		return false, fmt.Errorf("core: nodes (%d,%d) out of range for %d nodes", u, v, e.cfg.NumNodes)
	}
	r, err := e.query()
	if err != nil {
		return false, err
	}
	return r.rep[u] == r.rep[v], nil
}

// ConnectedMany answers a batch of connectivity point queries in one pass:
// at most one full query (none if the cache is current), then O(1) per
// pair off the shared representative vector. out[i] answers pairs[i].
func (e *Engine) ConnectedMany(pairs []stream.Pair) ([]bool, error) {
	for _, p := range pairs {
		if p.U >= e.cfg.NumNodes || p.V >= e.cfg.NumNodes {
			return nil, fmt.Errorf("core: nodes (%d,%d) out of range for %d nodes", p.U, p.V, e.cfg.NumNodes)
		}
	}
	if len(pairs) == 0 {
		return nil, nil
	}
	r, err := e.query()
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = r.rep[p.U] == r.rep[p.V]
	}
	return out, nil
}

// candidate is one sampled cut edge: the live root it was sampled for and
// the edge its sketch isolated.
type candidate struct {
	root uint32
	edge stream.Edge
}

// How a node contributes to its supernode's round aggregates during the
// delta query's materialization (querySession.material).
const (
	// matNone: a clean member of a non-suspect affected component. Its
	// sketch is unchanged since the cached result, whose component
	// aggregate was the zero sketch — so it contributes nothing and is
	// skipped entirely, which is what makes the delta's sketch work scale
	// with the dirty set rather than the component size.
	matNone = uint8(iota)
	// matSlab: a suspect-component member; contributes its live sketch
	// (the from-scratch materialization).
	matSlab
	// matDiff: a dirty member of a non-suspect component; contributes its
	// live sketch XOR its before-image — the diff of its state since the
	// cached result.
	matDiff
)

// querySession is the per-query scratch of lazy Boruvka. The caller holds
// the quiesce write lock with the workers idle, so shard state may be read
// freely (and concurrently) for the duration.
type querySession struct {
	d        *dsu.DSU
	rep      []uint32    // node -> current root, rebuilt each round
	finished []bool      // root-indexed: component certified complete
	slot     []int32     // root -> index into roots this round, -1 otherwise
	roots    []uint32    // live roots this round, in deterministic order
	starts   []int       // prefix offsets into order, len(roots)+1
	order    []uint32    // contributing live nodes grouped by root, ascending
	fill     []int       // prepareRound's counting-sort cursors
	scanBuf  []byte      // disk mode: sequential-scan chunk buffer
	outs     []sampleOut // per live root: this round's sampling outcome

	// affected and suspect are runDeltaBoruvka's per-prev-representative
	// flags; tags backs material.
	affected, suspect []bool
	tags              []uint8

	// material and before drive the delta query's diff materialization
	// (runDeltaBoruvka): per-node contribution tags and the before-images
	// backing matDiff. material == nil means every live node merges its
	// live sketch (full queries).
	material []uint8
	before   map[uint32][]byte
}

// prepareRound refreshes rep from the DSU and rebuilds the live-root index
// (roots, slot, and the order/starts member grouping). It returns the
// number of live (unfinished) components. Single-threaded: DSU path
// compression is not safe for concurrent Finds.
func (q *querySession) prepareRound() int {
	n := len(q.rep)
	q.roots = q.roots[:0]
	for i := range q.slot {
		q.slot[i] = -1
	}
	for i := 0; i < n; i++ {
		q.rep[i] = q.d.Find(uint32(i))
	}
	for i := 0; i < n; i++ {
		r := q.rep[i]
		if q.finished[r] || q.slot[r] >= 0 {
			continue
		}
		q.slot[r] = int32(len(q.roots))
		q.roots = append(q.roots, r)
	}
	// Group live contributing nodes by root (counting sort over slot):
	// members of roots[i] are order[starts[i]:starts[i+1]], ascending.
	// Under a material tagging, matNone nodes contribute nothing to any
	// aggregate and are left out of the grouping entirely (their roots are
	// still discovered above, off the full node scan).
	if cap(q.starts) < len(q.roots)+1 {
		q.starts = make([]int, len(q.roots)+1)
	}
	q.starts = q.starts[:len(q.roots)+1]
	clear(q.starts)
	live := 0
	for i := 0; i < n; i++ {
		if q.material != nil && q.material[i] == matNone {
			continue
		}
		if s := q.slot[q.rep[i]]; s >= 0 {
			q.starts[s+1]++
			live++
		}
	}
	for i := 1; i <= len(q.roots); i++ {
		q.starts[i] += q.starts[i-1]
	}
	if cap(q.order) < live {
		q.order = make([]uint32, live)
	}
	q.order = q.order[:live]
	q.fill = append(q.fill[:0], q.starts[:len(q.roots)]...)
	fill := q.fill
	for i := 0; i < n; i++ {
		if q.material != nil && q.material[i] == matNone {
			continue
		}
		if s := q.slot[q.rep[i]]; s >= 0 {
			q.order[fill[s]] = uint32(i)
			fill[s]++
		}
	}
	return len(q.roots)
}

// contribution returns the index into roots whose round aggregate node's
// sketch merges into, or -1 when node contributes nothing this round: its
// component is finished, or it is a matNone member under a delta query's
// tagging.
func (q *querySession) contribution(node int) int32 {
	s := q.slot[q.rep[node]]
	if s >= 0 && q.material != nil && q.material[node] == matNone {
		return -1
	}
	return s
}

// allDiff reports whether every one of members contributes a matDiff
// diff: the members of a cached component being re-certified.
func (q *querySession) allDiff(members []uint32) bool {
	if q.material == nil || len(members) == 0 {
		return false
	}
	for _, node := range members {
		if q.material[node] != matDiff {
			return false
		}
	}
	return true
}

// session returns the engine's query scratch reset to pristine singletons,
// allocating it on first use. One session serves every query: the caller
// holds the quiesce write lock, which serializes them. Reuse keeps a
// query's O(n) scratch on warm pages; fresh per-query slices would land
// on untouched memory and pay its page faults.
func (e *Engine) session() *querySession {
	q := e.qs
	if q == nil {
		n := int(e.cfg.NumNodes)
		q = &querySession{
			d:        dsu.New(n),
			rep:      make([]uint32, n),
			finished: make([]bool, n),
			slot:     make([]int32, n),
			affected: make([]bool, n),
			suspect:  make([]bool, n),
			tags:     make([]uint8, n),
		}
		e.qs = q
		return q
	}
	q.d.Reset()
	clear(q.finished)
	q.material, q.before = nil, nil
	return q
}

// buildRep refreshes the representative vector off the DSU one final time
// and returns it with the component count.
func (q *querySession) buildRep() ([]uint32, int) {
	n := len(q.rep)
	rep := make([]uint32, n)
	count := 0
	for i := 0; i < n; i++ {
		rep[i] = q.d.Find(uint32(i))
		if rep[i] == uint32(i) {
			count++
		}
	}
	return rep, count
}

// boruvkaRounds runs the lazy Boruvka rounds over q's current state —
// pristine singletons for a full query, the carried-over clean components
// pre-merged and pre-finished for a delta query — until every component
// certifies complete or the sketch depth runs out, appending recovered
// edges to *forest. It returns the number of still-live components (zero
// on success) and the rounds executed.
func (e *Engine) boruvkaRounds(q *querySession, forest *[]stream.Edge) (live, rounds int, err error) {
	for round := 0; round < e.cfg.Rounds; round++ {
		if live = q.prepareRound(); live == 0 {
			break
		}
		rounds++
		sample := e.sampleRound
		if e.testSampleRound != nil {
			sample = e.testSampleRound
		}
		cands, emptied, err := sample(q, round)
		if err != nil {
			return live, rounds, err
		}
		for _, r := range emptied {
			q.finished[r] = true
			live--
		}
		// Union phase: candidates arrive in deterministic live-root order,
		// so merge order — and therefore the recovered forest — is
		// reproducible across runs and worker counts.
		for _, c := range cands {
			ra, rb := q.d.Find(c.edge.U), q.d.Find(c.edge.V)
			if ra == rb {
				// Another merge this round already connected them.
				continue
			}
			root, _ := q.d.Union(ra, rb)
			// The merged component has a fresh cut; with high probability
			// neither constituent was finished (a finished component has
			// no cut edges to be sampled), but never let a stale flag
			// silence the new component.
			q.finished[root] = false
			*forest = append(*forest, c.edge)
			live--
		}
	}
	return live, rounds, nil
}

// runBoruvka executes the from-scratch lazy Boruvka rounds and returns
// the full query result tagged with epoch. On ErrQueryFailed the partial
// result is still returned.
func (e *Engine) runBoruvka(epoch uint64) (*queryResult, error) {
	q := e.session()
	forest := make([]stream.Edge, 0, e.cfg.NumNodes-1)
	live, rounds, err := e.boruvkaRounds(q, &forest)
	if err != nil {
		return nil, err
	}
	e.lastRounds.Store(int64(rounds))
	rep, count := q.buildRep()
	res := &queryResult{epoch: epoch, watermark: epoch, forest: forest, rep: rep, count: count}
	if live > 0 {
		// Rounds exhausted with uncertified components left: the forest
		// may be incomplete and fresh sketches do not exist to extend it.
		return res, ErrQueryFailed
	}
	return res, nil
}

// runDeltaBoruvka answers a query incrementally off the previous cached
// result. A component of prev's partition containing no dirty node is
// clean: every edge toggle since prev landed batches on both endpoints'
// sketches, so a clean component had no incident toggle — its forest
// edges are still genuine and its (empty) cut is unchanged. Clean
// components carry over pre-merged and pre-finished. No candidate edge
// can cross from an affected component into a clean one (such an edge
// either existed at prev time, putting both sides in one prev component,
// or was toggled since, dirtying both endpoints), so the carried-over
// partition is never disturbed.
//
// Affected components split two ways. A cached component's round
// aggregates are the ZERO sketch (its cut was certified empty), so if its
// cached forest is still trustworthy its current round-r aggregate
// equals the XOR of its dirty members' current-⊕-before diffs — the
// before-images the apply path captured at each node's first dirtying.
// Toggles internal to the component enter two members' diffs and cancel;
// a toggle crossing its boundary enters one and survives; so the diff
// aggregate IS the component's current cut, at O(dirty members) sketch
// work. The forest is trustworthy unless one of its edges may itself have
// been toggled away: a forest edge with both endpoints dirty is such a
// suspect (a deletion dirties exactly its two endpoints), and it demotes
// its whole component to the slow path — split back to singletons, full
// member materialization — because a lost forest edge can disconnect it.
// A dirty node with no before-image (capture refused at the image budget,
// or a disk-mode out-of-band change) demotes its component the same way.
// Non-forest deletions cannot disconnect a non-suspect component: its
// forest still spans it. RAM and disk mode share all of this; they differ
// only in where sampleRound reads the sketches from.
//
// ok=false (with no error) means the affected components failed to
// certify within the sketch depth; the caller falls back to the
// from-scratch run rather than surfacing a partial delta, keeping the
// result contract identical to a full query.
func (e *Engine) runDeltaBoruvka(epoch uint64, prev *queryResult, dirty *bitset.Set) (res *queryResult, ok bool, err error) {
	n := int(e.cfg.NumNodes)
	q := e.session()
	affected := q.affected // indexed by prev representative
	clear(affected)
	dirty.ForEach(func(i uint64) bool {
		affected[prev.rep[i]] = true
		return true
	})

	suspect := q.suspect // indexed by prev representative
	clear(suspect)
	demoted := false
	for _, eg := range prev.forest {
		if dirty.Test(uint64(eg.U)) && dirty.Test(uint64(eg.V)) {
			suspect[prev.rep[eg.U]] = true
			demoted = true
		}
	}
	if demoted {
		e.suspectQueries.Add(1)
	}
	// The images live in per-executing-shard maps (a node's first dirtying
	// can happen on any worker under a migrated assignment); flatten them
	// for per-node lookup. The maps are disjoint by construction — only
	// the first dirtying captures.
	before := make(map[uint32][]byte, e.beforeNodes.Load())
	for _, sh := range e.shards {
		for node, img := range sh.before {
			before[node] = img
		}
	}
	dirty.ForEach(func(i uint64) bool {
		if r := prev.rep[i]; !suspect[r] {
			if _, have := before[uint32(i)]; !have {
				suspect[r] = true
			}
		}
		return true
	})

	forest := make([]stream.Edge, 0, n-1)
	for _, eg := range prev.forest {
		r := prev.rep[eg.U]
		if !affected[r] || !suspect[r] {
			// Clean components keep their trees — and so do affected but
			// non-suspect ones, whose intactness the suspect scan just
			// certified: they stay pre-merged but live, to be re-certified
			// (or extended) from their members' diffs.
			q.d.Union(eg.U, eg.V)
			forest = append(forest, eg)
		}
	}
	for i := 0; i < n; i++ {
		if !affected[prev.rep[i]] {
			q.finished[q.d.Find(uint32(i))] = true
		}
	}
	q.before = before
	q.material = q.tags // matNone unless tagged below
	clear(q.material)
	for i := 0; i < n; i++ {
		if r := prev.rep[i]; affected[r] && suspect[r] {
			q.material[i] = matSlab
		}
	}
	dirty.ForEach(func(i uint64) bool {
		if !suspect[prev.rep[i]] {
			q.material[i] = matDiff
		}
		return true
	})
	live, rounds, err := e.boruvkaRounds(q, &forest)
	if err != nil {
		return nil, false, err
	}
	if live > 0 {
		return nil, false, nil
	}
	e.lastRounds.Store(int64(rounds))
	rep, count := q.buildRep()
	return &queryResult{
		epoch: epoch, watermark: epoch, delta: true,
		forest: forest, rep: rep, count: count,
	}, true, nil
}

// Outcome kinds of sampling one live root's round-r supernode sketch.
const (
	sampleFailed  = uint8(iota) // no good bucket or a non-edge index
	sampleEdge                  // a candidate cut edge
	sampleEmpty                 // empty cut: the component is complete
	samplePending               // column 0 missed; the other columns are still to merge
)

// sampleOut is one live root's sampling outcome for the round.
type sampleOut struct {
	kind uint8
	edge stream.Edge
}

// settle records a supernode sketch query's result in o. A checksum
// collision that produced a non-edge index counts as a sampling failure.
func (e *Engine) settle(o *sampleOut, idx uint64, qerr error) {
	switch {
	case qerr == nil:
		edge, ierr := stream.IndexEdge(uint64(e.cfg.NumNodes), idx)
		if ierr != nil {
			e.sketchFailures.Add(1)
			o.kind = sampleFailed
			return
		}
		o.kind, o.edge = sampleEdge, edge
	case errors.Is(qerr, cubesketch.ErrEmpty):
		// No edge crosses this component's cut; it is complete and drops
		// out of every later round.
		o.kind = sampleEmpty
	default:
		e.sketchFailures.Add(1)
		o.kind = sampleFailed
	}
}

// fanOut runs fn(0..workers-1) on one goroutine each (a single worker
// runs inline) and returns the errors they reported, joined.
func fanOut(workers int, fn func(w int) error) error {
	if workers == 1 {
		return fn(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sampleRound materializes the round-r supernode sketch of every live root
// and samples one candidate cut edge from each (Boruvka phase 1). The
// returned candidate list is in live-root order and emptied lists the
// roots whose cut sketch was empty (complete components).
func (e *Engine) sampleRound(q *querySession, round int) (cands []candidate, emptied []uint32, err error) {
	nr := len(q.roots)
	if cap(q.outs) < nr {
		q.outs = make([]sampleOut, nr)
	}
	q.outs = q.outs[:nr]
	clear(q.outs)
	if e.store == nil {
		err = e.materializeRound(q, round)
	} else {
		err = e.sampleRoundFromDisk(q, round)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: merging supernodes: %w", err)
	}
	for i, o := range q.outs {
		switch o.kind {
		case sampleEdge:
			cands = append(cands, candidate{root: q.roots[i], edge: o.edge})
		case sampleEmpty:
			emptied = append(emptied, q.roots[i])
		}
	}
	return cands, emptied, nil
}

// sampleRoundFromDisk performs the round's sequential scan into a
// single-round arena (one device, one pass), then fans the sampling of
// contiguous root ranges across one goroutine per shard.
func (e *Engine) sampleRoundFromDisk(q *querySession, round int) error {
	nr := len(q.roots)
	arena := cubesketch.NewSlab(nr, e.vecLen, e.cfg.Columns, []uint64{e.roundSeed(round)})
	if err := e.scanRoundFromDisk(q, arena, round); err != nil {
		return err
	}
	workers := min(len(e.shards), nr)
	chunk := (nr + workers - 1) / workers
	return fanOut(workers, func(w int) error {
		var acc cubesketch.Sketch
		for i := w * chunk; i < min((w+1)*chunk, nr); i++ {
			arena.View(i, 0, &acc)
			idx, qerr := acc.Query()
			e.settle(&q.outs[i], idx, qerr)
		}
		return nil
	})
}

// segment is one worker's share of a live root's members for the round:
// q.order[lo:hi] of q.roots[root]. A root whose members straddle a worker
// boundary is shared: each of its segments accumulates a partial
// aggregate, and the partials are XOR-combined before sampling.
type segment struct {
	root   int
	lo, hi int
	shared bool
	// cols is the root's first-pass column count: 1 (column 0 first), or
	// all columns for a root of matDiff members only.
	cols int
	part *cubesketch.Sketch // shared segments: this worker's partial
}

// materializeRound builds and samples every live root's round-r supernode
// sketch straight from the shard slabs (RAM mode), with no per-round
// arena. Work is balanced by members, not roots: the grouped member list
// is cut into one contiguous range per shard goroutine, so the single
// giant root of a final certification round is merged by every goroutine
// at once.
//
// Sampling is column-lazy. Query scans column 0 first, rows ascending, so
// when column 0 of a supernode holds a good bucket that bucket is Query's
// answer: a root merges only column 0 of its members' round sketches
// first, and merges the remaining columns and runs the full Query only on
// a column-0 miss. The exception is a root whose members are all matDiff —
// a cached component being re-certified, whose aggregate is expected to be
// the zero sketch — which merges every column in one pass.
func (e *Engine) materializeRound(q *querySession, round int) error {
	cols := e.cfg.Columns
	seed := e.roundSeed(round)
	members := len(q.order)
	workers := max(min(len(e.shards), members), 1)
	chunk := max((members+workers-1)/workers, 1)
	segs := make([][]segment, workers)
	w, wEnd := 0, chunk
	for i := range q.roots {
		lo, hi := q.starts[i], q.starts[i+1]
		first := 1
		if q.allDiff(q.order[lo:hi]) {
			first = cols
		}
		shared := false
		for hi > wEnd && w < workers-1 {
			if lo < wEnd {
				segs[w] = append(segs[w], segment{root: i, lo: lo, hi: wEnd, shared: true, cols: first})
				lo, shared = wEnd, true
			}
			w, wEnd = w+1, wEnd+chunk
		}
		segs[w] = append(segs[w], segment{root: i, lo: lo, hi: hi, shared: shared, cols: first})
	}

	// Pass 1: owned roots are merged and sampled by their worker; shared
	// roots accumulate their first-pass partials.
	hits := make([]uint64, workers) // roots answered from column 0 alone
	err := fanOut(workers, func(w int) error {
		acc := cubesketch.New(e.vecLen, cols, seed)
		used := 0 // leading columns of acc that may be nonzero
		for k := range segs[w] {
			s := &segs[w][k]
			part := q.order[s.lo:s.hi]
			if s.shared {
				s.part = cubesketch.New(e.vecLen, cols, seed)
				if err := e.mergeMembers(q, s.part, part, round, 0, s.cols); err != nil {
					return err
				}
				continue
			}
			acc.ResetColumns(0, used)
			if err := e.mergeMembers(q, acc, part, round, 0, s.cols); err != nil {
				return err
			}
			used = s.cols
			if s.cols < cols {
				if idx, qerr := acc.QueryColumn(0); qerr == nil {
					e.settle(&q.outs[s.root], idx, nil)
					hits[w]++
					continue
				}
				if err := e.mergeMembers(q, acc, part, round, s.cols, cols); err != nil {
					return err
				}
				used = cols
			}
			idx, qerr := acc.Query()
			e.settle(&q.outs[s.root], idx, qerr)
		}
		return nil
	})
	defer func() {
		var n uint64
		for _, h := range hits {
			n += h
		}
		e.colZeroRoots.Add(n)
	}()
	if err != nil {
		return err
	}

	// Combine the shared roots' partials and sample them. A column-0 miss
	// leaves the root pending for a second, equally balanced pass over its
	// remaining columns.
	pending := false
	err = e.combineShared(q, segs, false, func(head *segment) {
		out := &q.outs[head.root]
		if head.cols == cols {
			idx, qerr := head.part.Query()
			e.settle(out, idx, qerr)
			return
		}
		if idx, qerr := head.part.QueryColumn(0); qerr == nil {
			e.settle(out, idx, nil)
			hits[0]++ // the workers are done; any slot will do
			return
		}
		out.kind, pending = samplePending, true
	})
	if err != nil || !pending {
		return err
	}
	err = fanOut(workers, func(w int) error {
		for _, s := range segs[w] {
			if s.shared && q.outs[s.root].kind == samplePending {
				if err := e.mergeMembers(q, s.part, q.order[s.lo:s.hi], round, s.cols, cols); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return e.combineShared(q, segs, true, func(head *segment) {
		idx, qerr := head.part.Query()
		e.settle(&q.outs[head.root], idx, qerr)
	})
}

// combineShared XOR-combines each shared root's segment partials into its
// first segment's and calls sample on that head, roots in ascending order.
// The first pass combines the columns [0, cols) each segment merged; the
// second (rest) combines the remaining columns of the roots still pending.
func (e *Engine) combineShared(q *querySession, segs [][]segment, rest bool, sample func(head *segment)) error {
	var head *segment
	for w := range segs {
		for k := range segs[w] {
			s := &segs[w][k]
			if !s.shared || (rest && q.outs[s.root].kind != samplePending) {
				continue
			}
			if head == nil || head.root != s.root {
				if head != nil {
					sample(head)
				}
				head = s
				continue
			}
			lo, hi := 0, s.cols
			if rest {
				lo, hi = s.cols, e.cfg.Columns
			}
			if err := head.part.MergeColumns(s.part, lo, hi); err != nil {
				return err
			}
		}
	}
	if head != nil {
		sample(head)
	}
	return nil
}

// mergeMembers XORs columns [lo, hi) of every member's round-r
// contribution into acc: its live sketch viewed straight out of the owning
// shard's slab (read-only; the workers are quiescent under the write
// lock), and for a matDiff member also its before-image's round-r bytes,
// turning the contribution into the diff since the cached result —
// against which its component's cached aggregate is the zero sketch.
func (e *Engine) mergeMembers(q *querySession, acc *cubesketch.Sketch, members []uint32, round, lo, hi int) error {
	var view cubesketch.Sketch
	roundOff := round * e.sketchSize
	for _, node := range members {
		sh, local := e.shardOf(node)
		sh.slab.View(local, round, &view)
		if err := acc.MergeColumns(&view, lo, hi); err != nil {
			return err
		}
		if q.material != nil && q.material[node] == matDiff {
			img := q.before[node]
			if err := acc.MergeBinaryColumns(img[roundOff:roundOff+e.sketchSize], lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanRoundFromDisk materializes the round-r supernode sketches out of the
// tiered store. Groups resident in the write-back cache are served from
// their decoded arenas with zero device I/O — which is also what keeps the
// scan coherent: a dirty cached group's device bytes are stale by design,
// so the cache copy is the authoritative one. The remaining (uncached)
// contributing groups are coalesced into sequential runs (bridging gaps
// cheaper than an extra operation), each run read with ReadRange in
// queryScanBytes-sized chunks, and each slot's round-r bytes XOR-merged
// into its root's arena sketch without decoding the other rounds. One
// round costs O(uncachedLiveBytes/B) block reads in O(runs ×
// chunksPerRun) operations — against the seed path's one Read per node
// across all rounds.
//
// Under a delta query's tagging the scan honors the same contributions
// as the RAM path: matNone nodes are skipped (so a trickle with no
// suspect component reads only its dirty nodes' groups, which the apply
// path has just left in the cache), and each matDiff node's before-image
// round bytes are XORed onto its current bytes.
func (e *Engine) scanRoundFromDisk(q *querySession, arena *cubesketch.Slab, round int) error {
	n := int(e.cfg.NumNodes)
	npg := e.npg
	chunkSlots := queryScanBytes / e.slotSize
	if chunkSlots < 1 {
		chunkSlots = 1
	}
	if chunkSlots > n {
		chunkSlots = n
	}
	if cap(q.scanBuf) < chunkSlots*e.slotSize {
		q.scanBuf = make([]byte, chunkSlots*e.slotSize)
	}
	// A gap of finished slots is bridged when reading through it costs no
	// more blocks than starting a fresh operation would.
	gapSlots := e.cfg.BlockSize / e.slotSize
	roundOff := round * e.sketchSize

	var acc, view cubesketch.Sketch
	// mergeBefore turns a matDiff node's merged contribution into its diff
	// since the cached result by XORing in its before-image's round bytes.
	mergeBefore := func(nd int) error {
		if q.material == nil || q.material[nd] != matDiff {
			return nil
		}
		img := q.before[uint32(nd)]
		if err := acc.MergeBinary(img[roundOff : roundOff+e.sketchSize]); err != nil {
			return fmt.Errorf("core: query merge of node %d's before-image round %d: %w", nd, round, err)
		}
		return nil
	}

	// flushRun reads the pending uncached slot run [lo, hi) in chunks and
	// merges every contributing slot's round-r bytes.
	flushRun := func(lo, hi int) error {
		for cl := lo; cl < hi; cl += chunkSlots {
			ch := cl + chunkSlots
			if ch > hi {
				ch = hi
			}
			buf := q.scanBuf[:(ch-cl)*e.slotSize]
			if err := e.store.ReadRange(uint32(cl), ch-cl, buf); err != nil {
				return fmt.Errorf("core: query scan of nodes [%d,%d): %w", cl, ch, err)
			}
			for nd := cl; nd < ch; nd++ {
				s := q.contribution(nd)
				if s < 0 {
					continue // bridged gap slot
				}
				arena.View(int(s), 0, &acc)
				off := (nd-cl)*e.slotSize + roundOff
				if err := acc.MergeBinary(buf[off : off+e.sketchSize]); err != nil {
					return fmt.Errorf("core: query decode of node %d round %d: %w", nd, round, err)
				}
				if err := mergeBefore(nd); err != nil {
					return err
				}
			}
		}
		return nil
	}

	numGroups := (n + npg - 1) / npg
	runStart, runEnd := -1, -1 // pending uncached run, in slot units
	for g := 0; g < numGroups; g++ {
		lo := g * npg
		hi := lo + npg
		if hi > n {
			hi = n
		}
		anyLive := false
		for nd := lo; nd < hi && !anyLive; nd++ {
			anyLive = q.contribution(nd) >= 0
		}
		if !anyLive {
			continue // a gap; bridged below if the next live group is near
		}
		if e.cache != nil {
			if slab, ok := e.cache.Peek(g); ok {
				// Served from the decoded arena: no device traffic, and
				// coherent even when the group is dirty. Close any pending
				// device run first — bridging across this group would
				// re-merge its live slots from stale device bytes.
				if runStart >= 0 {
					if err := flushRun(runStart, runEnd); err != nil {
						return err
					}
					runStart = -1
				}
				for nd := lo; nd < hi; nd++ {
					s := q.contribution(nd)
					if s < 0 {
						continue
					}
					arena.View(int(s), 0, &acc)
					slab.View(nd-lo, round, &view)
					if err := acc.Merge(&view); err != nil {
						return fmt.Errorf("core: query merge of cached node %d round %d: %w", nd, round, err)
					}
					if err := mergeBefore(nd); err != nil {
						return err
					}
				}
				continue
			}
		}
		if runStart >= 0 && lo-runEnd <= gapSlots {
			runEnd = hi // bridge the gap inside one sequential read
			continue
		}
		if runStart >= 0 {
			if err := flushRun(runStart, runEnd); err != nil {
				return err
			}
		}
		runStart, runEnd = lo, hi
	}
	if runStart >= 0 {
		return flushRun(runStart, runEnd)
	}
	return nil
}
