package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSpecMatchesProgram checks that BENCHMARK.json names exactly the
// workloads and metrics (with units) the program prints.
func TestSpecMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	same := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	same("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	same("per_layer", perLayer, names, units)
}

// exercised lists, per workload, the per-layer metrics its traced run
// must report as nonzero, and those that must read zero because the
// workload bypasses the layer.
var exercised = map[string]struct{ nonzero, zero []string }{
	"bulk-ram": {
		nonzero: []string{"ingestor.apply_batch_ms", "gutter.leaf_insert_ns_per_update", "core.drain_ms",
			"core.batches", "core.updates_per_batch", "core.shard_batch_skew", "cubesketch.apply_ns_per_update",
			"core.cold_query_rounds", "trace.span_ms"},
		zero: []string{"gutter.tree_blocks_per_update", "diskstore.sketch_blocks_read_per_update",
			"diskstore.sketch_blocks_written_per_update", "diskstore.write_backs", "wal.fsyncs_per_round"},
	},
	"outofcore": {
		nonzero: []string{"ingestor.apply_batch_ms", "core.drain_ms", "core.batches", "cubesketch.apply_ns_per_update",
			"gutter.tree_blocks_per_update", "diskstore.sketch_blocks_read_per_update",
			"diskstore.sketch_blocks_written_per_update", "core.cold_query_rounds", "trace.span_ms"},
		zero: []string{"wal.fsyncs_per_round", "gzserve.refresh_ms_p50"},
	},
	"refresh": {
		nonzero: []string{"wal.fsyncs_per_round", "wal.bytes_per_round", "gzserve.ingest_flush_ms_p50",
			"gzserve.refresh_ms_p50", "gzserve.burst_refresh_ms_p50", "gzserve.refresh_bytes_per_round",
			"gzserve.delta_refresh_ratio", "core.seal_stall_ms_per_round", "trace.span_ms"},
		zero: []string{"gzserve.retries", "gzserve.failed", "ingestor.apply_batch_ms", "diskstore.write_backs"},
	},
}

// TestSmoke runs every workload once untraced and once traced at kron8.
// Every answer must match the exact reference and every path assertion
// and the trace's sum check must hold; every metric must be printed
// with its unit.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.3, trace: traced, scale: 8, work: t.TempDir()}
			res, meta, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, k := range []string{"nproc", "gomaxprocs", "go", "cpu", "source", "seed", "scale", "shards", "workers"} {
				if _, ok := meta[k]; !ok {
					t.Errorf("%s trace=%v: metadata lacks %q", name, traced, k)
				}
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", name, traced, d.name, m, d.unit)
				}
				// The heap reading is a difference of two samples of the
				// live heap, which at kron8 is within noise of zero.
				if !traced && d.name != "heap_mib" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if !traced {
				continue
			}
			for _, k := range exercised[name].nonzero {
				if res.Metrics[k].Value == 0 {
					t.Errorf("%s: layer metric %s is zero, the workload exercises it", name, k)
				}
			}
			for _, k := range exercised[name].zero {
				if v := res.Metrics[k].Value; v != 0 {
					t.Errorf("%s: layer metric %s = %v, the workload bypasses it", name, k, v)
				}
			}
			if v := res.Metrics["gzserve.delta_refresh_ratio"].Value; name == "refresh" && v != 1 {
				t.Errorf("refresh: delta refresh ratio %v, want every refresh on the delta path", v)
			}
		}
	}
}
