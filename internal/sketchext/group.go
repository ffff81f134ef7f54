package sketchext

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// engineGroup is the shared substrate of every extension structure: a set
// of connectivity engines fed from one logical stream. It centralizes the
// fan-out, flush, stats-aggregation, checkpoint and close plumbing the
// extensions used to copy-paste, so each extension only implements its own
// update routing (which engines see which updates) and its own query.
//
// The embedded methods make every extension batch-first and multi-producer
// safe for free: the engines themselves are internally synchronized. The
// one piece of group-level state is seal, which separates ingest calls
// (read side) from the cross-layer checkpoint seal (write side): a logical
// update must land in every layer on the same side of the cut, which no
// per-engine lock can guarantee. Extensions route every custom ingest
// entry point through ingest for that reason.
type engineGroup struct {
	// seal excludes ingestion while WriteCheckpoint seals all layers, so
	// the container is one consistent cut across engines. Ingest calls
	// hold it shared; only the (brief) seal phase holds it exclusively —
	// checkpoint streaming runs with ingestion live, as for a single
	// engine.
	seal    sync.RWMutex
	engines []*core.Engine
}

// ingest runs one logical ingest operation (which may touch several
// engines) on the read side of the seal lock, so a concurrent checkpoint
// seal observes every layer on the same side of the update.
func (g *engineGroup) ingest(f func() error) error {
	g.seal.RLock()
	defer g.seal.RUnlock()
	return f()
}

// UpdateAll ingests one update into every engine.
func (g *engineGroup) UpdateAll(u stream.Update) error {
	return g.ingest(func() error {
		for i, eng := range g.engines {
			if err := eng.Update(u); err != nil {
				return fmt.Errorf("sketchext: layer %d: %w", i, err)
			}
		}
		return nil
	})
}

// UpdateBatch ingests a batch of updates into every engine, using each
// engine's amortized bulk path.
func (g *engineGroup) UpdateBatch(ups []stream.Update) error {
	return g.ingest(func() error {
		for i, eng := range g.engines {
			if err := eng.UpdateBatch(ups); err != nil {
				return fmt.Errorf("sketchext: layer %d: %w", i, err)
			}
		}
		return nil
	})
}

// Flush drains every engine's buffered updates into its sketches.
func (g *engineGroup) Flush() error {
	for i, eng := range g.engines {
		if err := eng.Drain(); err != nil {
			return fmt.Errorf("sketchext: layer %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates the engines' statistics: counters and footprints sum;
// QueryRounds reports the maximum any engine used. Every engine shares
// one deployment config, so Shards is reported as the (common) per-engine
// shard count and ShardBatches as the element-wise sum across engines —
// partition skew stays observable for the extensions too.
func (g *engineGroup) Stats() core.Stats {
	var total core.Stats
	for _, eng := range g.engines {
		st := eng.Stats()
		total.Updates += st.Updates
		total.Batches += st.Batches
		total.SketchFailures += st.SketchFailures
		total.MemoryBytes += st.MemoryBytes
		total.DiskBytes += st.DiskBytes
		total.SketchIO = total.SketchIO.Add(st.SketchIO)
		total.BufferIO = total.BufferIO.Add(st.BufferIO)
		if st.QueryRounds > total.QueryRounds {
			total.QueryRounds = st.QueryRounds
		}
		// A group checkpoint seals every layer inside one ingest-exclusion
		// window, so the honest "how long was ingestion held" figure is
		// the sum of the per-layer seal stalls.
		total.CheckpointStallNanos += st.CheckpointStallNanos
		if st.Shards > total.Shards {
			total.Shards = st.Shards
		}
		if total.ShardBatches == nil {
			total.ShardBatches = make([]uint64, len(st.ShardBatches))
		}
		for i, b := range st.ShardBatches {
			if i < len(total.ShardBatches) {
				total.ShardBatches[i] += b
			}
		}
	}
	return total
}

// extMagic heads the GZX1 extension checkpoint container: a fixed header
// followed by each layer engine's own (self-delimiting) checkpoint stream,
// back to back. The engine-level GZE4 format carries its own sections and
// checksums, so the container adds only layer identity.
var extMagic = [4]byte{'G', 'Z', 'X', '1'}

// WriteCheckpoint writes every layer engine's checkpoint, wrapped in the
// GZX1 container. All layers are sealed under one ingest-exclusion window
// first — a logical update that fans out to several engines is either in
// every layer's snapshot or in none, so the container is a single
// consistent cut — and only then streamed, with ingestion live. The stall
// is the sum of the per-layer drain+seal phases, never the stream writes.
func (g *engineGroup) WriteCheckpoint(w io.Writer) error {
	g.seal.Lock()
	snaps := make([]*core.CheckpointSnapshot, 0, len(g.engines))
	for i, eng := range g.engines {
		cs, err := eng.SealCheckpoint()
		if err != nil {
			g.seal.Unlock()
			for _, s := range snaps {
				s.Close()
			}
			return fmt.Errorf("sketchext: sealing layer %d: %w", i, err)
		}
		snaps = append(snaps, cs)
	}
	g.seal.Unlock()
	defer func() {
		for _, s := range snaps {
			s.Close()
		}
	}()

	var hdr [8]byte
	copy(hdr[:4], extMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(g.engines)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for i, cs := range snaps {
		if err := cs.StreamTo(w); err != nil {
			return fmt.Errorf("sketchext: checkpointing layer %d: %w", i, err)
		}
	}
	return nil
}

// MergeCheckpoint merges a GZX1 container written by a structure with the
// same construction (layer count and per-layer parameters) into this one,
// layer by layer, via each engine's zero-alloc checkpoint merge. No seal
// lock is needed: merging is an XOR, which commutes with concurrent
// updates, so each layer's final state is initial ⊕ checkpoint ⊕ updates
// regardless of interleaving — the container itself is already one cut.
func (g *engineGroup) MergeCheckpoint(r io.Reader) error {
	// One shared buffered reader across layers: each engine consumes
	// exactly its own self-delimiting stream from it.
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("sketchext: reading checkpoint container header: %w", err)
	}
	if [4]byte(hdr[:4]) != extMagic {
		return fmt.Errorf("%w: not a GZX1 extension checkpoint", core.ErrCorruptCheckpoint)
	}
	if n := int(binary.LittleEndian.Uint32(hdr[4:])); n != len(g.engines) {
		return fmt.Errorf("%w: container has %d layers, structure has %d",
			core.ErrIncompatibleCheckpoint, n, len(g.engines))
	}
	for i, eng := range g.engines {
		if err := eng.MergeCheckpoint(br); err != nil {
			return fmt.Errorf("sketchext: merging layer %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every engine, returning the first error.
func (g *engineGroup) Close() error {
	var first error
	for _, eng := range g.engines {
		if eng == nil {
			continue
		}
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
