package main

import (
	"runtime"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// The replays time one layer on its own, single-threaded, over the run's
// own stream: the leaf gutters with a sink that only recycles batches,
// and the sketch kernel over exactly the per-node batches those gutters
// emit. They use the engine's defaults for a RAM graph of the same size.

// leafGutters builds leaf gutters sized as the engine sizes them: per-node
// capacity BufferFactor (0.5) × node-sketch bytes / 4 bytes per buffered
// update, one stripe per shard or processor, one node per group.
func leafGutters(n uint32, sink gutter.Sink) *gutter.LeafGutters {
	vl := stream.VectorLen(uint64(n))
	slot := cubesketch.New(vl, cubesketch.DefaultColumns, engineSeed).SerializedSize() * core.DefaultRounds(n)
	stripes := max(shards, runtime.GOMAXPROCS(0))
	return gutter.NewLeafGutters(n, max(1, slot/8), stripes, 1, sink)
}

// feedGutters pushes the stream through lg in ingest-sized chunks and
// flushes it, returning the time spent.
func feedGutters(lg *gutter.LeafGutters, in *kron.Result) (time.Duration, error) {
	edges := make([]stream.Edge, ingestChunk)
	var spent time.Duration
	for off := 0; off < len(in.Updates); off += ingestChunk {
		chunk := in.Updates[off:min(off+ingestChunk, len(in.Updates))]
		edges = edges[:len(chunk)]
		for i, u := range chunk {
			edges[i] = u.Edge
		}
		start := time.Now()
		if err := lg.InsertEdges(edges); err != nil {
			return 0, err
		}
		spent += time.Since(start)
	}
	start := time.Now()
	err := lg.Flush()
	return spent + time.Since(start), err
}

// replayLeafGutters returns the leaf gutters' cost in ns per stream update.
func replayLeafGutters(in *kron.Result) (float64, error) {
	var lg *gutter.LeafGutters
	lg = leafGutters(in.NumNodes, func(b gutter.Batch) { lg.Recycle(b.Others) })
	spent, err := feedGutters(lg, in)
	return float64(spent.Nanoseconds()) / float64(len(in.Updates)), err
}

// replayKernel applies every batch the leaf gutters emit to one slab
// holding all nodes' sketches, timing only cubesketch.Slab.Apply. It is
// the single-threaded kernel cost in ns per stream update.
func replayKernel(in *kron.Result) (float64, error) {
	n := in.NumNodes
	vl := stream.VectorLen(uint64(n))
	seeds := make([]uint64, core.DefaultRounds(n))
	for r := range seeds {
		seeds[r] = engineSeed + uint64(r)
	}
	slab := cubesketch.NewSlab(int(n), vl, cubesketch.DefaultColumns, seeds)
	var applied time.Duration
	var idx []uint64
	var lg *gutter.LeafGutters
	lg = leafGutters(n, func(b gutter.Batch) {
		idx = idx[:0]
		for _, other := range b.Others {
			idx = append(idx, stream.EdgeIndex(uint64(n), stream.Edge{U: b.Node, V: other}))
		}
		start := time.Now()
		slab.Apply(int(b.Node), idx)
		applied += time.Since(start)
		lg.Recycle(b.Others)
	})
	if _, err := feedGutters(lg, in); err != nil {
		return 0, err
	}
	return float64(applied.Nanoseconds()) / float64(len(in.Updates)), nil
}
