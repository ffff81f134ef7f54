package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's whole output vocabulary: an untraced run prints
// every endToEnd metric, a traced run every perLayer metric, on every
// workload. BENCHMARK.json lists the same names (the smoke test checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_updates_per_s", "1/s"},
	{"cold_query_ms_p50", "ms"},
	{"delta_query_ms_p50", "ms"},
	{"delta_query_ms_p90", "ms"},
	{"freshness_ms_p50", "ms"},
	{"freshness_ms_p99", "ms"},
	{"engine_mem_mib", "MiB"},
	{"heap_mib", "MiB"},
}

var perLayer = []metricDef{
	{"ingestor.apply_batch_ms", "ms"},
	{"gutter.leaf_insert_ns_per_update", "ns"},
	{"core.drain_ms", "ms"},
	{"core.batches", "count"},
	{"core.updates_per_batch", "count"},
	{"core.shard_batch_skew", "ratio"},
	{"cubesketch.apply_ns_per_update", "ns"},
	{"gutter.tree_blocks_per_update", "blocks"},
	{"diskstore.sketch_blocks_read_per_update", "blocks"},
	{"diskstore.sketch_blocks_written_per_update", "blocks"},
	{"diskstore.cache_hit_ratio", "ratio"},
	{"diskstore.write_backs", "count"},
	{"core.cold_query_rounds", "count"},
	{"wal.fsyncs_per_round", "count"},
	{"wal.bytes_per_round", "bytes"},
	{"gzserve.ingest_flush_ms_p50", "ms"},
	{"gzserve.refresh_ms_p50", "ms"},
	{"gzserve.burst_refresh_ms_p50", "ms"},
	{"gzserve.refresh_bytes_per_round", "bytes"},
	{"gzserve.delta_refresh_ratio", "ratio"},
	{"core.seal_stall_ms_per_round", "ms"},
	{"gzserve.retries", "count"},
	{"gzserve.failed", "count"},
	{"trace.span_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report fills a result's metrics from values for the table that fits
// the run's mode. A metric the workload does not exercise reads zero.
// Values outside the table, such as trace.trials, are not printed.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mib = 1 << 20
