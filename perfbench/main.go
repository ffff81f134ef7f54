// Command perfbench is GraphZeppelin's benchmark. It runs one workload
// for a fixed time, checks every timed answer against an exact
// reference, and prints one JSON result line: end-to-end metrics
// untraced (-trace 0), per-layer metrics traced (-trace 1). See
// README.md beside this file for the workloads and metrics.
//
//	go run . -workload bulk-ram -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphzeppelin/internal/kron"
)

// Every engine the benchmark builds runs with this many ingest shards:
// one per vCPU of the 2-vCPU hosts the benchmark is sized for.
const shards = 2

// engineSeed seeds the sketches' hash functions. It is fixed, so only the
// workload seed varies the input.
const engineSeed = 0x5eed

// workloads maps each workload to its default Kronecker scale.
var workloads = map[string]int{
	"bulk-ram":  12,
	"outofcore": 12,
	"refresh":   11,
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    int    // Kronecker scale; 0 = the workload's default
	work     string // scratch directory; removed at exit
	cache    string // stream cache directory ("" = none)
	traceOut string // where a traced run writes its spans ("" = nowhere)
	sourceID string
}

// runner carries one run's configuration and its failure accounting.
type runner struct {
	cfg       config
	attempted int
	failed    int
	problems  []string
}

// op counts one timed call into the program; err marks it failed.
func (r *runner) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// check marks the last counted call failed when ok is false: a wrong
// answer or a broken path assertion.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "bulk-ram, outofcore or refresh")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for on-disk state (default: a new directory under the working directory)")
	flag.StringVar(&cfg.cache, "cache", "", "directory caching generated streams (empty = no cache)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file a traced run writes its spans to")
	flag.StringVar(&cfg.sourceID, "source-id", "unknown", "identifies the source tree measured (git commit or content digest)")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metaLine, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(metaLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one configured run and returns its result line and the
// host and input metadata printed before it.
func run(cfg config) (result, map[string]any, error) {
	defScale, ok := workloads[cfg.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale == 0 {
		cfg.scale = defScale
	}
	if cfg.scale < 6 || cfg.scale > 16 {
		return result{}, nil, fmt.Errorf("scale %d out of range [6, 16]", cfg.scale)
	}
	if cfg.seconds <= 0 {
		return result{}, nil, fmt.Errorf("seconds must be positive")
	}
	if cfg.work == "" {
		cfg.work = fmt.Sprintf("perfbench-work-%d", os.Getpid())
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(cfg.work)

	in, err := loadStream(cfg.scale, cfg.seed, cfg.cache)
	if err != nil {
		return result{}, nil, fmt.Errorf("generating kron%d: %w", cfg.scale, err)
	}
	r := &runner{cfg: cfg}
	meta := hostMeta(cfg, &in)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var values map[string]float64
	switch cfg.workload {
	case "bulk-ram":
		values, err = runBulk(r, &in, false, tr)
	case "outofcore":
		values, err = runBulk(r, &in, true, tr)
	case "refresh":
		values, err = runRefresh(r, &in, tr)
	}
	if err != nil {
		return result{}, nil, err
	}

	defs := endToEnd
	if tr != nil {
		defs = perLayer
		a, aerr := tr.attribute()
		if aerr != nil {
			r.fail("sum check: %v", aerr)
		}
		traced := values["trace.trials"]
		values["trace.span_ms"] = float64(a.phaseNs) / 1e6 / traced
		values["trace.unattributed_ms"] = float64(a.unattributedNs()) / 1e6 / traced
		meta["trace_sum_check"] = map[string]any{
			"phase_ms": float64(a.phaseNs) / 1e6, "layer_ms": float64(a.childNs) / 1e6,
			"unattributed_ms": float64(a.unattributedNs()) / 1e6, "ok": aerr == nil,
		}
		if cfg.traceOut != "" {
			if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
				return result{}, nil, err
			}
			if err := tr.write(cfg.traceOut, meta); err != nil {
				return result{}, nil, err
			}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if r.attempted == 0 {
		return result{}, nil, fmt.Errorf("no operation was attempted")
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   report(defs, values),
	}, meta, nil
}

// hostMeta is the host and input description printed with every result,
// so results from different hosts or inputs are never mixed.
func hostMeta(cfg config, in *kron.Result) map[string]any {
	workers := 0
	if cfg.workload == "refresh" {
		workers = refreshWorkers
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"scale":      cfg.scale,
		"nodes":      in.NumNodes,
		"updates":    len(in.Updates),
		"shards":     shards,
		"workers":    workers,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"source":     cfg.sourceID,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// liveHeap returns the Go heap in use after a full collection. It
// collects twice: objects parked in a sync.Pool survive one collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// deadline returns when a run that started at start must stop starting
// new work.
func (r *runner) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
}
