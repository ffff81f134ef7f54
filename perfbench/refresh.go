package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// The refresh workload: an in-process gzserve cluster of durable workers
// behind loopback HTTP, one coordinator, and a closed loop of rounds
// (ingest a toggle batch, flush, refresh, query) from one client.
const (
	refreshWorkers = 2
	refreshTrials  = 3 // clusters built per run; set-up is their median
	// Every burstEvery-th round is a burst touching burstFrac of the
	// nodes: above the 10% delta-query limit, below the 20% delta
	// checkpoint limit. The others are trickles touching trickleFrac.
	burstEvery = 20
	// minRounds keeps a short run's percentiles defined: it includes
	// one burst.
	minRounds = burstEvery
)

// refreshTrial is one cluster's life.
type refreshTrial struct {
	setup               time.Duration
	heapBytes, memBytes int64
	load                time.Duration // bulk load into the workers' engines
	fresh, delta, cold  []float64     // ms
	// Traced rounds only.
	plainFresh, tracedFresh                    []float64 // trickle rounds, ms
	ingestFlush, refresh, burstRefresh         []float64 // ms
	walFsyncs, walBytes, sealStallMs, shipped  []float64 // per round
	merges, deltaRefreshes, retries, failedOps uint64
}

// cluster owns everything one refresh trial starts.
type cluster struct {
	workers []*gzserve.Worker
	servers []*http.Server
	served  []chan struct{}
	addrs   []string
	co      *gzserve.Coordinator
}

// close stops the coordinator, then the servers, then the workers, and
// waits for every serving goroutine to return.
func (c *cluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if c.co != nil {
		errs = append(errs, c.co.Close(ctx))
	}
	for i, srv := range c.servers {
		errs = append(errs, srv.Shutdown(ctx))
		<-c.served[i]
	}
	for _, wk := range c.workers {
		errs = append(errs, wk.Close())
	}
	return errors.Join(errs...)
}

// startWorker builds a durable worker over stateDir and serves it on a
// loopback port.
func (c *cluster) startWorker(cfg core.Config, lo, hi uint32, stateDir string) error {
	wk, _, err := gzserve.NewDurableWorker(cfg, lo, hi, gzserve.Durability{StateDir: stateDir})
	if err != nil {
		return err
	}
	c.workers = append(c.workers, wk)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: wk.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	c.servers = append(c.servers, srv)
	c.served = append(c.served, done)
	c.addrs = append(c.addrs, "http://"+ln.Addr().String())
	return nil
}

func runRefresh(r *runner, in *kron.Result, tr *tracer) (map[string]float64, error) {
	budget := time.Duration(r.cfg.seconds * float64(time.Second) / refreshTrials)
	var trials []refreshTrial
	for i := 0; i < refreshTrials; i++ {
		t, err := refreshRun(r, in, tr, i, budget)
		if err != nil {
			return nil, err
		}
		trials = append(trials, t)
	}
	if tr == nil {
		return refreshEndToEnd(trials, len(in.Updates)), nil
	}
	return refreshLayers(trials), nil
}

// refreshEndToEnd reports the trials. The ingest rate is the bulk load's:
// a round carries 10 to 150 updates, so a rate over rounds would measure
// round-trip latency, which freshness already covers.
func refreshEndToEnd(trials []refreshTrial, updates int) map[string]float64 {
	var setup, rate, mem, heap, fresh, delta, cold []float64
	for _, t := range trials {
		setup = append(setup, t.setup.Seconds())
		rate = append(rate, float64(updates)/t.load.Seconds())
		mem = append(mem, float64(t.memBytes)/mib)
		heap = append(heap, float64(t.heapBytes)/mib)
		fresh = append(fresh, t.fresh...)
		delta = append(delta, t.delta...)
		cold = append(cold, t.cold...)
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

func refreshLayers(trials []refreshTrial) map[string]float64 {
	var ingestFlush, refresh, burstRefresh, fsyncs, walBytes, stall, shipped, plain, traced []float64
	var merges, deltas, retries, failed uint64
	for _, t := range trials {
		ingestFlush = append(ingestFlush, t.ingestFlush...)
		refresh = append(refresh, t.refresh...)
		burstRefresh = append(burstRefresh, t.burstRefresh...)
		fsyncs = append(fsyncs, t.walFsyncs...)
		walBytes = append(walBytes, t.walBytes...)
		stall = append(stall, t.sealStallMs...)
		shipped = append(shipped, t.shipped...)
		plain = append(plain, t.plainFresh...)
		traced = append(traced, t.tracedFresh...)
		merges += t.merges
		deltas += t.deltaRefreshes
		retries += t.retries
		failed += t.failedOps
	}
	v := map[string]float64{
		"wal.fsyncs_per_round":            mean(fsyncs),
		"wal.bytes_per_round":             mean(walBytes),
		"gzserve.ingest_flush_ms_p50":     median(ingestFlush),
		"gzserve.refresh_ms_p50":          median(refresh),
		"gzserve.burst_refresh_ms_p50":    median(burstRefresh),
		"gzserve.refresh_bytes_per_round": mean(shipped),
		"core.seal_stall_ms_per_round":    mean(stall),
		"gzserve.retries":                 float64(retries),
		"gzserve.failed":                  float64(failed),
		"trace.overhead_ratio":            median(traced)/median(plain) - 1,
		"trace.trials":                    float64(len(trials)),
	}
	if merges > 0 {
		v["gzserve.delta_refresh_ratio"] = float64(deltas) / float64(merges)
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// refreshRun is one trial. Set-up, timed as a whole: start the workers,
// bulk-load the stream into their engines (partitioned as the
// coordinator partitions), start the coordinator and refresh once. The
// heap reading brackets the coordinator alone. Then rounds run for the
// trial's budget; in a traced run every other round is traced.
func refreshRun(r *runner, in *kron.Result, tr *tracer, trial int, budget time.Duration) (res refreshTrial, err error) {
	n := in.NumNodes
	cfg := core.Config{NumNodes: n, Seed: engineSeed, Shards: shards}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := filepath.Join(r.cfg.work, fmt.Sprintf("cluster-%d", trial))
	defer os.RemoveAll(dir)
	c := &cluster{}
	defer func() {
		if cerr := c.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing the cluster: %w", cerr)
		}
	}()

	start := time.Now()
	part, err := gzserve.NewRangePartitioner(n, refreshWorkers)
	if err != nil {
		return res, err
	}
	for i := 0; i < refreshWorkers; i++ {
		lo, hi := part.Range(i)
		if err := c.startWorker(cfg, lo, hi, filepath.Join(dir, fmt.Sprintf("worker-%d", i))); err != nil {
			return res, fmt.Errorf("starting worker %d: %w", i, err)
		}
	}
	loadStart := time.Now()
	var bufs [][]stream.Update
	for off := 0; off < len(in.Updates); off += ingestChunk {
		bufs = part.Split(in.Updates[off:min(off+ingestChunk, len(in.Updates))], bufs)
		for i, wk := range c.workers {
			if err := wk.Engine().UpdateBatch(bufs[i]); err != nil {
				return res, fmt.Errorf("loading worker %d: %w", i, err)
			}
		}
	}
	for i, wk := range c.workers {
		if err := wk.Engine().Drain(); err != nil {
			return res, fmt.Errorf("loading worker %d: %w", i, err)
		}
	}
	res.setup = time.Since(start)
	res.load = time.Since(loadStart)

	heap0 := liveHeap()
	start = time.Now()
	c.co, err = gzserve.NewCoordinator(gzserve.CoordinatorConfig{Engine: cfg, Workers: c.addrs})
	if err != nil {
		return res, fmt.Errorf("starting the coordinator: %w", err)
	}
	if err := c.co.Refresh(ctx); err != nil {
		return res, fmt.Errorf("first refresh: %w", err)
	}
	res.setup += time.Since(start)
	res.heapBytes = liveHeap() - heap0
	for _, wk := range c.workers {
		res.memBytes += wk.Stats().Engine.MemoryBytes
	}

	o := newOracle(n, in.FinalEdges)
	rep, count, err := c.co.ConnectedComponents(ctx)
	if r.op(err, "Coordinator.ConnectedComponents") {
		r.check(o.matches(rep, count), "bulk load: components differ from the exact reference")
	}

	tg := newToggler(n, r.cfg.seed*1000003+uint64(trial))
	l := &refreshLoop{ctx: ctx, r: r, c: c, o: o, res: &res, traced: tr != nil}
	coBefore := c.co.Stats()
	roundsStart := time.Now()
	for round := 0; round < minRounds || time.Since(roundsStart) < budget; round++ {
		burst := round%burstEvery == burstEvery-1
		frac := trickleFrac
		if burst {
			frac = burstFrac
		}
		ups := tg.batch(o, frac)
		var t *tracer
		if tr != nil && round%2 == 1 {
			t = tr
			t.setRound(trial*100000 + round)
		}
		l.round(ups, burst, t)
	}
	coAfter := c.co.Stats()
	res.merges = coAfter.Merges - coBefore.Merges
	res.deltaRefreshes = coAfter.DeltaRefreshes - coBefore.DeltaRefreshes
	for i, w := range coAfter.Workers {
		res.retries += w.Retries - coBefore.Workers[i].Retries
		res.failedOps += w.Failed - coBefore.Workers[i].Failed
	}
	r.check(o.verifyRebuild(), "incremental reference disagrees with a rebuilt one")
	return res, nil
}

// workerTotals sums the worker-side counters a traced round reads.
type workerTotals struct{ fsyncs, walBytes, stallNs uint64 }

func readWorkers(c *cluster) workerTotals {
	var w workerTotals
	for _, wk := range c.workers {
		st := wk.Stats()
		w.fsyncs += st.Engine.WAL.Fsyncs
		w.walBytes += st.Engine.WAL.Bytes
		w.stallNs += st.SealStallNanos
	}
	return w
}

func shippedBytes(st gzserve.CoordStats) uint64 {
	var b uint64
	for _, w := range st.Workers {
		b += w.CheckpointBytes
	}
	return b
}

// refreshLoop is what every round of one trial shares.
type refreshLoop struct {
	ctx    context.Context
	r      *runner
	c      *cluster
	o      *oracle
	res    *refreshTrial
	traced bool // the run is traced (its even rounds are not)
}

// round runs one closed-loop round: Ingest and Flush the batch, Refresh
// the merged view, query it. Freshness is the time from the Ingest call
// to the answer. Counters are read outside the timed span; worker
// counters only on traced rounds (t != nil).
func (l *refreshLoop) round(ups []stream.Update, burst bool, t *tracer) {
	r, c, o, res := l.r, l.c, l.o, l.res
	before := c.co.Stats()
	var wBefore workerTotals
	if t != nil {
		wBefore = readWorkers(c)
	}
	name := "trickle-round"
	if burst {
		name = "burst-round"
	}
	phase := t.begin(name, -1)
	start := time.Now()
	ok := r.op(t.call("coordinator.Ingest", phase, func() error { return c.co.Ingest(ups) }), "Coordinator.Ingest")
	ok = r.op(t.call("coordinator.Flush", phase, c.co.Flush), "Coordinator.Flush") && ok
	ok = r.op(t.call("coordinator.Refresh", phase, func() error { return c.co.Refresh(l.ctx) }), "Coordinator.Refresh") && ok
	refreshed := time.Now()
	var rep []uint32
	var count int
	err := t.call("coordinator.ConnectedComponents", phase, func() error {
		var err error
		rep, count, err = c.co.ConnectedComponents(l.ctx)
		return err
	})
	done := time.Now()
	t.end(phase)

	fresh, query := ms(done.Sub(start)), ms(done.Sub(refreshed))
	res.fresh = append(res.fresh, fresh)
	if burst {
		res.cold = append(res.cold, query)
	} else {
		res.delta = append(res.delta, query)
	}

	after := c.co.Stats()
	if r.op(err, "Coordinator.ConnectedComponents") && ok {
		r.check(o.matches(rep, count), "%s: components differ from the exact reference (%d components, reference %d)", name, count, o.d.Count())
	}
	r.check(after.DeltaRefreshes == before.DeltaRefreshes+1,
		"%s: refresh did not take the delta path (delta refreshes %d -> %d)", name, before.DeltaRefreshes, after.DeltaRefreshes)

	if t == nil {
		if l.traced && !burst {
			res.plainFresh = append(res.plainFresh, fresh)
		}
		return
	}
	if !burst {
		// Bursts fall on traced rounds only, so the overhead compares
		// trickle rounds.
		res.tracedFresh = append(res.tracedFresh, fresh)
	}
	w := readWorkers(c)
	res.ingestFlush = append(res.ingestFlush, t.childMs(phase, "coordinator.Ingest")+t.childMs(phase, "coordinator.Flush"))
	if burst {
		res.burstRefresh = append(res.burstRefresh, t.childMs(phase, "coordinator.Refresh"))
	} else {
		res.refresh = append(res.refresh, t.childMs(phase, "coordinator.Refresh"))
		res.shipped = append(res.shipped, float64(shippedBytes(after)-shippedBytes(before)))
	}
	res.walFsyncs = append(res.walFsyncs, float64(w.fsyncs-wBefore.fsyncs))
	res.walBytes = append(res.walBytes, float64(w.walBytes-wBefore.walBytes))
	res.sealStallMs = append(res.sealStallMs, float64(w.stallNs-wBefore.stallNs)/1e6)
	t.count(phase, "gzserve.checkpoint_bytes", float64(shippedBytes(after)-shippedBytes(before)))
	t.count(phase, "wal.fsyncs", float64(w.fsyncs-wBefore.fsyncs))
	t.count(phase, "wal.bytes", float64(w.walBytes-wBefore.walBytes))
}
