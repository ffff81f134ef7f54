package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"graphzeppelin"
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// The bulk workloads (bulk-ram, outofcore): the whole stream goes in
// through one Ingestor, drain included, then a query tail runs.
const (
	ingestChunk = 4096 // updates per Ingestor.ApplyBatch call
	coldQueries = 20   // from-scratch queries per trial
	// burstFrac is the share of nodes a burst touches before each cold
	// query after the first: above the engine's 10% delta-query limit, so
	// the query runs from scratch.
	burstFrac = 0.15
	// trickleFrac is the share of nodes a trickle round touches: well
	// under the delta-query limit.
	trickleFrac = 0.01
	// Trickle rounds follow every cold query. In RAM there are 19, so one
	// round in 20 is a burst, as in the refresh workload, and the bursts
	// set the freshness tail. On disk the delta path re-reads every
	// affected component from the device, so a trickle query costs as
	// much as a cold one; there are two, or the ingest trials would be
	// crowded out of the run.
	tricklesPerQueryRAM  = 19
	tricklesPerQueryDisk = 2
)

// bulkTrial is one engine's life: construction, bulk ingest, query tail.
type bulkTrial struct {
	setup, ingest       time.Duration
	memBytes, heapBytes int64
	cold, delta, fresh  []float64 // ms
	// Filled in traced trials only.
	applyMs, drainMs float64
	stats            core.Stats // read once the drain returned
	queryRounds      []float64
}

// runBulk runs trials until the time budget is spent (at least two, so a
// traced run has an untraced trial to compare with). In a traced run the
// odd trials are traced and the even ones measure the tracing overhead.
func runBulk(r *runner, in *kron.Result, disk bool, tr *tracer) (map[string]float64, error) {
	end := r.deadline(time.Now())
	var plain, traced []bulkTrial
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		res, err := bulkRun(r, in, disk, t, i)
		if err != nil {
			return nil, err
		}
		if t != nil {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	if tr == nil {
		return bulkEndToEnd(in, plain), nil
	}
	return bulkLayers(in, plain, traced)
}

func bulkEndToEnd(in *kron.Result, trials []bulkTrial) map[string]float64 {
	var setup, rate, mem, heap, cold, delta, fresh []float64
	for _, t := range trials {
		setup = append(setup, t.setup.Seconds())
		rate = append(rate, float64(len(in.Updates))/t.ingest.Seconds())
		mem = append(mem, float64(t.memBytes)/mib)
		heap = append(heap, float64(t.heapBytes)/mib)
		cold = append(cold, t.cold...)
		delta = append(delta, t.delta...)
		fresh = append(fresh, t.fresh...)
	}
	return map[string]float64{
		"setup_s":              median(setup),
		"ingest_updates_per_s": median(rate),
		"cold_query_ms_p50":    median(cold),
		"delta_query_ms_p50":   median(delta),
		"delta_query_ms_p90":   quantile(delta, 0.90),
		"freshness_ms_p50":     median(fresh),
		"freshness_ms_p99":     quantile(fresh, 0.99),
		"engine_mem_mib":       median(mem),
		"heap_mib":             median(heap),
	}
}

func bulkLayers(in *kron.Result, plain, traced []bulkTrial) (map[string]float64, error) {
	per := func(f func(t bulkTrial) float64) float64 {
		var xs []float64
		for _, t := range traced {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v := map[string]float64{
		"ingestor.apply_batch_ms": per(func(t bulkTrial) float64 { return t.applyMs }),
		"core.drain_ms":           per(func(t bulkTrial) float64 { return t.drainMs }),
		"core.batches":            per(func(t bulkTrial) float64 { return float64(t.stats.Batches) }),
		// Every update is buffered under both endpoints.
		"core.updates_per_batch": per(func(t bulkTrial) float64 { return ratio(2*t.stats.Updates, t.stats.Batches) }),
		"core.shard_batch_skew":  per(func(t bulkTrial) float64 { return skew(t.stats.ShardBatches) }),
		"gutter.tree_blocks_per_update": per(func(t bulkTrial) float64 {
			return ratio(t.stats.BufferIO.ReadBlocks+t.stats.BufferIO.WriteBlocks, t.stats.Updates)
		}),
		"diskstore.sketch_blocks_read_per_update": per(func(t bulkTrial) float64 {
			return ratio(t.stats.SketchIO.ReadBlocks, t.stats.Updates)
		}),
		"diskstore.sketch_blocks_written_per_update": per(func(t bulkTrial) float64 {
			return ratio(t.stats.SketchIO.WriteBlocks, t.stats.Updates)
		}),
		"diskstore.cache_hit_ratio": per(func(t bulkTrial) float64 {
			c := t.stats.SketchCache
			return ratio(c.Hits, c.Hits+c.Misses)
		}),
		"diskstore.write_backs":  per(func(t bulkTrial) float64 { return float64(t.stats.SketchCache.WriteBacks) }),
		"core.cold_query_rounds": per(func(t bulkTrial) float64 { return median(t.queryRounds) }),
		"trace.trials":           float64(len(traced)),
	}
	var plainIngest, tracedIngest []float64
	for _, t := range plain {
		plainIngest = append(plainIngest, t.ingest.Seconds())
	}
	for _, t := range traced {
		tracedIngest = append(tracedIngest, t.ingest.Seconds())
	}
	v["trace.overhead_ratio"] = median(tracedIngest)/median(plainIngest) - 1

	// The per-layer replays run after every trial's engine is closed, so
	// they have the machine to themselves.
	var err error
	if v["gutter.leaf_insert_ns_per_update"], err = replayLeafGutters(in); err != nil {
		return nil, err
	}
	if v["cubesketch.apply_ns_per_update"], err = replayKernel(in); err != nil {
		return nil, err
	}
	return v, nil
}

// skew is max/mean of per-shard batch counts (1 = perfectly balanced).
func skew(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum uint64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return float64(slices.Max(xs)) * float64(len(xs)) / float64(sum)
}

// bulkRun is one trial: build the engine (timed as set-up), ingest the
// stream with its drain (timed as ingest), then the query tail.
func bulkRun(r *runner, in *kron.Result, disk bool, tr *tracer, trial int) (bulkTrial, error) {
	var res bulkTrial
	n := in.NumNodes
	opts := []graphzeppelin.Option{graphzeppelin.WithShards(shards), graphzeppelin.WithSeed(engineSeed)}
	if disk {
		dir := filepath.Join(r.cfg.work, fmt.Sprintf("engine-%d", trial))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, graphzeppelin.WithSketchesOnDisk(dir), graphzeppelin.WithBuffering(graphzeppelin.GutterTree))
	}

	heap0 := liveHeap()
	start := time.Now()
	g, err := graphzeppelin.New(n, opts...)
	if err != nil {
		return res, fmt.Errorf("building the engine: %w", err)
	}
	defer g.Close()
	ing, err := g.NewIngestor()
	if err != nil {
		return res, err
	}
	res.setup = time.Since(start)

	tr.setRound(trial * 10000)
	phase := tr.begin("ingest", -1)
	start = time.Now()
	for off := 0; off < len(in.Updates); off += ingestChunk {
		chunk := in.Updates[off:min(off+ingestChunk, len(in.Updates))]
		r.op(tr.call("ingestor.ApplyBatch", phase, func() error { return ing.ApplyBatch(chunk) }), "Ingestor.ApplyBatch")
	}
	r.op(tr.call("ingestor.Flush", phase, ing.Flush), "Ingestor.Flush")
	r.op(tr.call("graph.Flush", phase, g.Flush), "Graph.Flush")
	res.ingest = time.Since(start)
	tr.end(phase)

	st := g.Stats()
	res.memBytes = st.MemoryBytes
	res.heapBytes = liveHeap() - heap0
	r.check(st.Updates == uint64(len(in.Updates)), "engine counted %d updates, stream has %d", st.Updates, len(in.Updates))
	if tr != nil {
		res.stats = st
		res.applyMs = tr.childMs(phase, "ingestor.ApplyBatch")
		res.drainMs = tr.childMs(phase, "graph.Flush")
		tr.count(phase, "core.updates", float64(st.Updates))
		tr.count(phase, "core.batches", float64(st.Batches))
		tr.count(phase, "core.memory_bytes", float64(st.MemoryBytes))
	}

	o := newOracle(n, in.FinalEdges)
	tg := newToggler(n, r.cfg.seed*1000003+uint64(trial))
	for q := 0; q < coldQueries; q++ {
		var ups []stream.Update
		if q > 0 {
			ups = tg.batch(o, burstFrac)
		}
		tr.setRound(trial*10000 + q*100)
		before := g.Stats()
		fresh, query, ok := bulkRound(r, g, ing, o, ups, tr, "burst-round")
		after := g.Stats()
		if q > 0 {
			res.fresh = append(res.fresh, ms(fresh))
		}
		res.cold = append(res.cold, ms(query))
		res.queryRounds = append(res.queryRounds, float64(after.QueryRounds))
		if ok {
			r.check(q == 0 || after.DeltaFallbacks == before.DeltaFallbacks+1,
				"cold query %d did not run from scratch (delta fallbacks %d -> %d)", q, before.DeltaFallbacks, after.DeltaFallbacks)
		}

		trickles := tricklesPerQueryRAM
		if disk {
			trickles = tricklesPerQueryDisk
		}
		for k := 0; k < trickles; k++ {
			ups := tg.batch(o, trickleFrac)
			tr.setRound(trial*10000 + q*100 + k + 1)
			before := g.Stats()
			fresh, query, ok := bulkRound(r, g, ing, o, ups, tr, "trickle-round")
			after := g.Stats()
			res.fresh = append(res.fresh, ms(fresh))
			res.delta = append(res.delta, ms(query))
			if ok {
				r.check(after.DeltaQueries == before.DeltaQueries+1 && after.DeltaFallbacks == before.DeltaFallbacks,
					"trickle query %d.%d did not take the delta path", q, k)
			}
		}
	}
	r.check(o.verifyRebuild(), "incremental reference disagrees with a rebuilt one")
	if err := g.Close(); err != nil {
		return res, fmt.Errorf("closing the engine: %w", err)
	}
	return res, nil
}

// bulkRound applies ups through the ingestor, flushes the ingestor and
// the graph, and asks for the components. It returns the time from the
// first call to the answer (freshness) and the query's own time, and
// whether every call succeeded with the exact answer.
func bulkRound(r *runner, g *graphzeppelin.Graph, ing *graphzeppelin.Ingestor, o *oracle, ups []stream.Update, tr *tracer, name string) (fresh, query time.Duration, ok bool) {
	phase := tr.begin(name, -1)
	start := time.Now()
	ok = true
	if len(ups) > 0 {
		ok = r.op(tr.call("ingestor.ApplyBatch", phase, func() error { return ing.ApplyBatch(ups) }), "Ingestor.ApplyBatch") && ok
		ok = r.op(tr.call("ingestor.Flush", phase, ing.Flush), "Ingestor.Flush") && ok
		ok = r.op(tr.call("graph.Flush", phase, g.Flush), "Graph.Flush") && ok
	}
	qStart := time.Now()
	var rep []uint32
	var count int
	err := tr.call("graph.ConnectedComponents", phase, func() error {
		var err error
		rep, count, err = g.ConnectedComponents()
		return err
	})
	done := time.Now()
	tr.end(phase)
	if !r.op(err, "Graph.ConnectedComponents") {
		return done.Sub(start), done.Sub(qStart), false
	}
	match := o.matches(rep, count)
	r.check(match, "%s: components differ from the exact reference (%d components, reference %d)", name, count, o.d.Count())
	return done.Sub(start), done.Sub(qStart), ok && match
}
