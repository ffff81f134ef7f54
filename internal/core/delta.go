package core

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"graphzeppelin/internal/bitset"
	"graphzeppelin/internal/cubesketch"
)

// Delta checkpoint format (GZD1):
//
//	magic    [4]byte "GZD1"
//	header   [48]byte — identical layout to GZE4 (checkpoint.go), with
//	  sectionCount possibly 0 (nothing dirtied since the base) and
//	  updates/walLSN describing the *tip* state the delta advances to
//	meta     metaLen bytes — a GZM1 chain envelope (below) wrapping the
//	  caller metadata
//	sections, each:
//	  section header [20]byte: startIdx uint32 (index of the section's
//	    first id in the delta's global sorted id list), count uint32,
//	    payloadLen uint64 (= count × (4 + slotSize)), crc uint32
//	  payload: count little-endian uint32 node ids (strictly ascending
//	    across the whole stream, < numNodes) followed by count slots —
//	    the ids' *current* serialized node stacks at the tip
//	no footer — deltas are small and always consumed front to back.
//
// A delta is not a diff: because sketches are linear, a node's current
// serialized stack simply replaces its stale bytes at the consumer, so
// applying a delta to an exact copy of the base state yields an exact
// copy of the tip state. That replacement semantic is only sound when
// the consumer really holds the base, which is what the chain envelope
// enforces.
//
// GZM1 chain envelope (40 bytes + user metadata), sealed as the GZE4/GZD1
// meta blob of every checkpoint this engine writes:
//
//	magic    [4]byte "GZM1"
//	chainTag uint64 — random per-lineage token (Engine.chainTag)
//	ckptID   uint64 — the id this seal minted (the tip, for a delta)
//	baseID   uint64 — the base checkpoint id a delta chains onto (0 full)
//	baseLSN  uint64 — the WAL LSN the base covered (0 full)
//	userLen  uint32, then userLen bytes of caller metadata
//
// Legacy meta blobs (pre-chain checkpoints) parse as pure user metadata.
var (
	metaEnvelopeMagic = [4]byte{'G', 'Z', 'M', '1'}
)

const (
	metaEnvelopeLen = 40
	// maxSealHist bounds the per-seal dirty-set history: a delta base may
	// lag the tip by at most this many seals before the engine falls back
	// to a full checkpoint. Sixteen covers any realistic refresh cadence
	// while capping history RAM at 16 bit-vectors of the node universe.
	maxSealHist = 16
)

// ErrDeltaCheckpoint is returned when a GZD1 delta stream is handed to an
// operation that needs a self-contained checkpoint (restore, merge): a
// delta only has meaning applied on top of its exact base state.
var ErrDeltaCheckpoint = errors.New("core: GZD1 delta checkpoint requires its base")

// ErrCheckpointChain is returned by ApplyDeltaCheckpoint when the delta
// does not chain onto this engine's current state: wrong lineage (chain
// tag), wrong base id (stale or out-of-order delta), or wrong base WAL
// position. The consumer should fall back to a full checkpoint pull.
var ErrCheckpointChain = errors.New("core: delta checkpoint does not chain onto current state")

// newChainTag mints the random per-lineage token that scopes checkpoint
// chain ids: ids are small counters, so two engine incarnations (a worker
// before and after a stateless restart, say) can mint the same id for
// different states — the 2^-64 tag collision probability is what makes the
// (tag, id, lsn) chain check sound across restarts.
func newChainTag() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("core: reading random chain tag: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// sealRecord is one entry of the seal history: the nodes dirtied between
// the previous seal and the seal that minted id, and the WAL position that
// seal covered. A delta against base b ships the union of the records with
// id > b.
type sealRecord struct {
	id    uint64
	lsn   uint64
	dirty *bitset.Set
}

// mintSealID advances the checkpoint chain at seal time: it captures and
// clears every shard's dirty-since-seal vector into a new history record,
// trims the history to maxSealHist (advancing the floor below which bases
// are forgotten), and publishes the new state id and covered LSN. Caller
// holds ckptMu and the quiesce write lock with the workers idle.
func (e *Engine) mintSealID(lsn uint64) uint64 {
	id := e.ckptSeq.Load() + 1
	dirty := bitset.New(uint64(e.cfg.NumNodes))
	for _, sh := range e.shards {
		sh.dirtySeal.OrInto(dirty)
		sh.dirtySeal.ClearAll()
	}
	e.sealHist = append(e.sealHist, sealRecord{id: id, lsn: lsn, dirty: dirty})
	for len(e.sealHist) > maxSealHist {
		e.histFloor = e.sealHist[0].id
		e.histFloorLSN = e.sealHist[0].lsn
		e.sealHist = e.sealHist[1:]
	}
	e.ckptSeq.Store(id)
	e.ckptLSN.Store(lsn)
	return id
}

// planDelta decides whether the seal minting newID can ship as a delta
// against baseID, and if so returns the sorted dirty node ids and the WAL
// LSN the base covered. It refuses when deltas are disabled, the base is
// unknown (not this lineage's retained history), or the dirty fraction
// exceeds Config.DeltaCheckpointThreshold — the caller then seals a full
// checkpoint, which is always a valid answer. Caller holds ckptMu and the
// quiesce write lock; mintSealID has already pushed newID's record.
func (e *Engine) planDelta(baseID, newID uint64) ([]uint32, uint64, bool) {
	thr := e.cfg.DeltaCheckpointThreshold
	if baseID == 0 || thr < 0 || baseID >= newID || baseID < e.histFloor {
		return nil, 0, false
	}
	baseLSN := e.histFloorLSN
	found := baseID == e.histFloor
	union := bitset.New(uint64(e.cfg.NumNodes))
	var count uint64
	for _, rec := range e.sealHist {
		if rec.id == baseID {
			baseLSN, found = rec.lsn, true
		}
		if rec.id > baseID {
			count += rec.dirty.OrInto(union)
		}
	}
	if !found || float64(count) > thr*float64(e.cfg.NumNodes) {
		return nil, 0, false
	}
	ids := make([]uint32, 0, count)
	union.ForEach(func(i uint64) bool {
		ids = append(ids, uint32(i))
		return true
	})
	return ids, baseLSN, true
}

// materializeDelta copies the dirty nodes' current serialized stacks into
// the snapshot's delta buffer, under the quiesce write lock (a delta is at
// most a threshold fraction of the universe, so the copy is cheap enough
// to live inside the seal stall — no copy-on-write machinery needed). RAM
// mode marshals straight from the live slabs; disk mode spills the
// write-back cache so device bytes are the seal-time truth, then reads
// consecutive id runs with coalesced range accesses.
func (e *Engine) materializeDelta(cs *CheckpointSnapshot) error {
	ids := cs.deltaIDs
	cs.deltaBuf = make([]byte, len(ids)*e.slotSize)
	if e.store == nil {
		k := uint32(len(e.shards))
		for i, node := range ids {
			e.shards[node%k].slab.MarshalNode(int(node/k), cs.deltaBuf[i*e.slotSize:(i+1)*e.slotSize])
		}
		return nil
	}
	if e.cache != nil {
		if err := e.cache.WriteBackAll(); err != nil {
			return fmt.Errorf("core: sealing write-back cache for delta: %w", err)
		}
	}
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		if err := e.store.ReadRange(ids[i], j-i, cs.deltaBuf[i*e.slotSize:j*e.slotSize]); err != nil {
			return fmt.Errorf("core: delta scan of nodes [%d,%d]: %w", ids[i], ids[j-1], err)
		}
		i = j
	}
	return nil
}

// deltaSectionPlan partitions nIDs delta entries into sections targeting
// sectionTargetBytes of payload each (0 sections for an empty delta).
func deltaSectionPlan(nIDs, slotSize int) (nSections, perSection int) {
	perSection = sectionTargetBytes / (4 + slotSize)
	if perSection < 1 {
		perSection = 1
	}
	return (nIDs + perSection - 1) / perSection, perSection
}

// streamDeltaCheckpoint writes the sealed delta snapshot as a GZD1 stream.
// The delta buffer was materialized at seal time, so this runs without the
// quiesce lock, ingestion live.
func (e *Engine) streamDeltaCheckpoint(w io.Writer, cs *CheckpointSnapshot) error {
	nSections, perSection := deltaSectionPlan(len(cs.deltaIDs), e.slotSize)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(deltaMagic[:]); err != nil {
		return err
	}
	var hdr [checkpointHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], e.cfg.NumNodes)
	binary.LittleEndian.PutUint64(hdr[4:], e.cfg.Seed)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(e.cfg.Columns))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(e.cfg.Rounds))
	binary.LittleEndian.PutUint64(hdr[20:], cs.updates)
	binary.LittleEndian.PutUint32(hdr[28:], uint32(nSections))
	binary.LittleEndian.PutUint64(hdr[32:], cs.walLSN)
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(cs.meta)))
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(cs.meta, crcTable))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(cs.meta); err != nil {
		return err
	}
	entry := 4 + e.slotSize
	for lo := 0; lo < len(cs.deltaIDs); lo += perSection {
		hi := lo + perSection
		if hi > len(cs.deltaIDs) {
			hi = len(cs.deltaIDs)
		}
		count := hi - lo
		payload := e.getSectionBuf(count * entry)
		for j := 0; j < count; j++ {
			binary.LittleEndian.PutUint32(payload[j*4:], cs.deltaIDs[lo+j])
		}
		copy(payload[count*4:], cs.deltaBuf[lo*e.slotSize:hi*e.slotSize])
		var sh [sectionHeaderLen]byte
		binary.LittleEndian.PutUint32(sh[0:], uint32(lo))
		binary.LittleEndian.PutUint32(sh[4:], uint32(count))
		binary.LittleEndian.PutUint64(sh[8:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(sh[16:], crc32.Checksum(payload, crcTable))
		_, err := bw.Write(sh[:])
		if err == nil {
			_, err = bw.Write(payload)
		}
		e.putSectionBuf(payload)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// metaEnvelope is the decoded GZM1 chain envelope of a checkpoint's meta
// blob. ckptID == 0 means the blob predates the chain format and user
// holds the whole blob.
type metaEnvelope struct {
	chainTag uint64
	ckptID   uint64
	baseID   uint64
	baseLSN  uint64
	user     []byte
}

// encodeMetaEnvelope seals the chain identity and the caller metadata into
// one meta blob (the layout documented atop this file).
func encodeMetaEnvelope(tag, ckptID, baseID, baseLSN uint64, user []byte) []byte {
	buf := make([]byte, metaEnvelopeLen+len(user))
	copy(buf[0:4], metaEnvelopeMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], tag)
	binary.LittleEndian.PutUint64(buf[12:], ckptID)
	binary.LittleEndian.PutUint64(buf[20:], baseID)
	binary.LittleEndian.PutUint64(buf[28:], baseLSN)
	binary.LittleEndian.PutUint32(buf[36:], uint32(len(user)))
	copy(buf[metaEnvelopeLen:], user)
	return buf
}

// parseMetaEnvelope decodes a meta blob. Blobs that are not GZM1 envelopes
// (checkpoints written before the chain format, or user metadata that
// happens to be short) parse as pure user metadata with a zero chain id.
func parseMetaEnvelope(meta []byte) metaEnvelope {
	if len(meta) < metaEnvelopeLen || [4]byte(meta[0:4]) != metaEnvelopeMagic ||
		int(binary.LittleEndian.Uint32(meta[36:])) != len(meta)-metaEnvelopeLen {
		return metaEnvelope{user: meta}
	}
	env := metaEnvelope{
		chainTag: binary.LittleEndian.Uint64(meta[4:]),
		ckptID:   binary.LittleEndian.Uint64(meta[12:]),
		baseID:   binary.LittleEndian.Uint64(meta[20:]),
		baseLSN:  binary.LittleEndian.Uint64(meta[28:]),
	}
	if len(meta) > metaEnvelopeLen {
		env.user = meta[metaEnvelopeLen:]
	}
	return env
}

// adoptChainMeta installs a restored checkpoint's WAL coverage, user
// metadata and chain identity into a fresh engine: the restored engine
// continues the writer's lineage, so deltas it later seals chain onto the
// restored state and deltas the writer sealed against it still apply.
// Called during restore, before the engine is shared.
func (e *Engine) adoptChainMeta(h checkpointHeader, meta []byte) {
	env := parseMetaEnvelope(meta)
	e.restoredWALPos = h.walLSN
	e.restoredMeta = env.user
	if env.ckptID != 0 {
		e.chainTag = env.chainTag
		e.ckptSeq.Store(env.ckptID)
		e.histFloor = env.ckptID
		e.histFloorLSN = h.walLSN
	}
	e.ckptLSN.Store(h.walLSN)
}

// markChangedNode records an out-of-band sketch mutation of node (a
// checkpoint merge, delta apply, or node patch — anything bypassing the
// batch apply path) in both dirty epochs. In RAM mode it captures the
// node's pre-change image for the delta query through captureBefore, like
// the apply path; disk mode captures none here, so the node's component
// takes the delta query's full materialization. Must run BEFORE the
// mutation, under the quiesce write lock with the workers idle.
func (e *Engine) markChangedNode(node uint32) {
	home, local := e.shardOf(node)
	if e.store == nil {
		if buf := e.captureBefore(home, node); buf != nil {
			home.slab.MarshalNode(local, buf)
		}
	}
	home.dirty.Set(uint64(node))
	home.dirtySeal.Set(uint64(node))
}

// WriteDeltaCheckpoint seals and streams a checkpoint that is a GZD1 delta
// against this engine's earlier seal baseID when possible, falling back to
// a full GZE4 stream otherwise (see SealCheckpointSince for the fallback
// conditions). It reports which format was written and never truncates the
// WAL — the log past the base is what recovers a lost or corrupt delta.
func (e *Engine) WriteDeltaCheckpoint(w io.Writer, baseID uint64) (delta bool, err error) {
	cs, err := e.SealCheckpointSince(baseID)
	if err != nil {
		return false, err
	}
	defer cs.Close()
	if err := cs.StreamTo(w); err != nil {
		return cs.IsDelta(), err
	}
	return cs.IsDelta(), nil
}

// readDeltaBody reads and fully validates a GZD1 body: every section CRC
// must pass, ids must be strictly ascending and in range, and the payload
// sizes must match the header's section count. Nothing is installed — the
// caller gets the complete (ids, slots) in RAM, which is what makes
// ApplyDeltaCheckpoint atomic: a truncated or corrupt delta is rejected
// before any engine state changes.
func (e *Engine) readDeltaBody(br *bufio.Reader, h checkpointHeader) ([]uint32, []byte, error) {
	entry := 4 + e.slotSize
	ids := make([]uint32, 0, 64)
	var slots []byte
	prev := int64(-1)
	for s := 0; s < h.sections; s++ {
		var sh [sectionHeaderLen]byte
		if _, err := io.ReadFull(br, sh[:]); err != nil {
			return nil, nil, fmt.Errorf("core: delta truncated at section header %d: %w", s, err)
		}
		start := int(binary.LittleEndian.Uint32(sh[0:]))
		count := int(binary.LittleEndian.Uint32(sh[4:]))
		payloadLen := int(binary.LittleEndian.Uint64(sh[8:]))
		crc := binary.LittleEndian.Uint32(sh[16:])
		if start != len(ids) || count <= 0 || uint32(count) > h.numNodes ||
			uint32(len(ids)+count) > h.numNodes || payloadLen != count*entry {
			return nil, nil, fmt.Errorf("%w: delta section (startIdx=%d count=%d payload=%d) at id cursor %d",
				ErrCorruptCheckpoint, start, count, payloadLen, len(ids))
		}
		payload := e.getSectionBuf(payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			e.putSectionBuf(payload)
			return nil, nil, fmt.Errorf("core: delta truncated in section %d: %w", s, err)
		}
		if crc32.Checksum(payload, crcTable) != crc {
			e.putSectionBuf(payload)
			return nil, nil, fmt.Errorf("%w: checksum mismatch in delta section %d", ErrCorruptCheckpoint, s)
		}
		for j := 0; j < count; j++ {
			id := binary.LittleEndian.Uint32(payload[j*4:])
			if int64(id) <= prev || id >= h.numNodes {
				e.putSectionBuf(payload)
				return nil, nil, fmt.Errorf("%w: delta id %d out of order or range at index %d",
					ErrCorruptCheckpoint, id, len(ids))
			}
			prev = int64(id)
			ids = append(ids, id)
		}
		slots = append(slots, payload[count*4:]...)
		e.putSectionBuf(payload)
	}
	return ids, slots, nil
}

// ApplyDeltaCheckpoint advances this engine's state from the delta's base
// to its tip by replacing the dirty nodes' serialized stacks. The engine
// must hold exactly the base state, enforced by the (chainTag, baseID,
// baseLSN) check against the current chain position — a stale, repeated,
// or out-of-order delta fails with ErrCheckpointChain before any state
// changes, and a corrupt or truncated stream fails with the body fully
// validated in RAM first, so a failed apply never leaves partial state.
//
// onReplace, when non-nil, receives each replaced node's full serialized
// before and after stacks (valid only during the call): an aggregator
// feeds these straight into PatchNodes on a downstream engine, which is
// how delta refresh composes with delta queries. The replaced nodes are
// marked in both dirty epochs, so queries and later seals on this engine
// see the change precisely.
func (e *Engine) ApplyDeltaCheckpoint(r io.Reader, onReplace func(node uint32, before, after []byte)) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return err
	}
	br := asBufReader(r)
	h, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	if !h.delta {
		return fmt.Errorf("%w: ApplyDeltaCheckpoint needs a GZD1 stream, got a full GZE4 checkpoint",
			ErrCorruptCheckpoint)
	}
	if err := e.checkCompatible(h); err != nil {
		return err
	}
	meta, err := readCheckpointMeta(br, h)
	if err != nil {
		return err
	}
	env := parseMetaEnvelope(meta)
	if env.ckptID == 0 || env.baseID == 0 {
		return fmt.Errorf("%w: delta without a chain envelope", ErrCorruptCheckpoint)
	}
	if env.chainTag != e.chainTag || env.baseID != e.ckptSeq.Load() || env.baseLSN != e.ckptLSN.Load() {
		return fmt.Errorf("%w: delta (tag=%#x base=%d@lsn %d) vs engine (tag=%#x state=%d@lsn %d)",
			ErrCheckpointChain, env.chainTag, env.baseID, env.baseLSN,
			e.chainTag, e.ckptSeq.Load(), e.ckptLSN.Load())
	}
	ids, slots, err := e.readDeltaBody(br, h)
	if err != nil {
		return err
	}
	// Validate every slot's per-round encoding against a scratch slab
	// before touching live state: the install below must not be able to
	// fail halfway.
	seeds := make([]uint64, e.cfg.Rounds)
	for r := range seeds {
		seeds[r] = e.roundSeed(r)
	}
	scratch := cubesketch.NewSlab(1, e.vecLen, e.cfg.Columns, seeds)
	for i, node := range ids {
		if err := scratch.UnmarshalNode(0, slots[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("%w: delta slot of node %d: %v", ErrCorruptCheckpoint, node, err)
		}
	}

	if e.store == nil {
		for i, node := range ids {
			after := slots[i*e.slotSize : (i+1)*e.slotSize]
			var before []byte
			home, local := e.shardOf(node)
			if onReplace != nil {
				before = make([]byte, e.slotSize)
				home.slab.MarshalNode(local, before)
			}
			e.markChangedNode(node)
			if err := home.slab.UnmarshalNode(local, after); err != nil {
				return fmt.Errorf("core: installing delta slot of node %d: %w", node, err)
			}
			if onReplace != nil {
				onReplace(node, before, after)
			}
		}
	} else {
		// The cache's dirty state is ahead of the device and resident
		// copies go stale under the replacement — spill and drop it, then
		// write consecutive id runs with coalesced device accesses.
		if e.cache != nil {
			if err := e.cache.Invalidate(); err != nil {
				return fmt.Errorf("core: invalidating write-back cache for delta apply: %w", err)
			}
		}
		for i := 0; i < len(ids); {
			j := i + 1
			for j < len(ids) && ids[j] == ids[j-1]+1 {
				j++
			}
			var pre []byte
			if onReplace != nil {
				pre = make([]byte, (j-i)*e.slotSize)
				if err := e.store.ReadRange(ids[i], j-i, pre); err != nil {
					return fmt.Errorf("core: delta pre-image read of nodes [%d,%d]: %w", ids[i], ids[j-1], err)
				}
			}
			for k := i; k < j; k++ {
				e.markChangedNode(ids[k])
			}
			if err := e.store.WriteRange(ids[i], j-i, slots[i*e.slotSize:j*e.slotSize]); err != nil {
				return fmt.Errorf("core: delta install of nodes [%d,%d]: %w", ids[i], ids[j-1], err)
			}
			if onReplace != nil {
				for k := i; k < j; k++ {
					onReplace(ids[k], pre[(k-i)*e.slotSize:(k-i+1)*e.slotSize],
						slots[k*e.slotSize:(k+1)*e.slotSize])
				}
			}
			i = j
		}
	}

	// The engine now holds exactly the tip state: adopt its position. The
	// seal history described paths from pre-apply states and is useless to
	// a consumer already at the tip; dropping it just means the next seal's
	// delta base must be the tip or later, which is the only base a
	// consumer of this apply could hold anyway.
	e.updates.Store(h.updates)
	e.ckptSeq.Store(env.ckptID)
	e.ckptLSN.Store(h.walLSN)
	e.restoredWALPos = h.walLSN
	e.restoredMeta = env.user
	e.sealHist = nil
	e.histFloor = env.ckptID
	e.histFloorLSN = h.walLSN
	e.epoch.Add(1)
	return nil
}

// PatchNodes XOR-merges per-node (before, after) serialized stack pairs
// into this RAM-resident engine: each listed node's sketches become
// node ⊕ before ⊕ after. An aggregator holding the sum of several source
// engines uses this to replace one source's stale contribution with its
// current one — the slot pairs come verbatim from ApplyDeltaCheckpoint's
// onReplace — at O(patch) cost instead of re-merging every source.
// updatesTotal replaces the engine's update count (the aggregate total is
// recomputed by the caller from its sources). Slots are validated before
// any state changes; the patched nodes are marked in both dirty epochs
// with before-images captured, so the next query runs the delta path over
// the touched components only.
func (e *Engine) PatchNodes(ids []uint32, before, after []byte, updatesTotal uint64) error {
	if e.store != nil {
		return errors.New("core: PatchNodes requires RAM-resident sketches")
	}
	if len(before) != len(ids)*e.slotSize || len(after) != len(ids)*e.slotSize {
		return fmt.Errorf("core: PatchNodes: %d ids with %d/%d slot bytes, want %d each",
			len(ids), len(before), len(after), len(ids)*e.slotSize)
	}
	for _, node := range ids {
		if node >= e.cfg.NumNodes {
			return fmt.Errorf("core: PatchNodes: node %d out of range (%d nodes)", node, e.cfg.NumNodes)
		}
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return err
	}
	if len(ids) == 0 {
		if updatesTotal != e.updates.Load() {
			e.updates.Store(updatesTotal)
			e.epoch.Add(1)
		}
		return nil
	}
	seeds := make([]uint64, e.cfg.Rounds)
	for r := range seeds {
		seeds[r] = e.roundSeed(r)
	}
	scratch := cubesketch.NewSlab(1, e.vecLen, e.cfg.Columns, seeds)
	for i, node := range ids {
		if err := scratch.UnmarshalNode(0, before[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: PatchNodes before-slot of node %d: %w", node, err)
		}
		if err := scratch.UnmarshalNode(0, after[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: PatchNodes after-slot of node %d: %w", node, err)
		}
	}
	for i, node := range ids {
		e.markChangedNode(node)
		home, local := e.shardOf(node)
		if err := home.slab.MergeNodeBinary(local, before[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: patching node %d (before): %w", node, err)
		}
		if err := home.slab.MergeNodeBinary(local, after[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: patching node %d (after): %w", node, err)
		}
	}
	e.updates.Store(updatesTotal)
	e.epoch.Add(1)
	return nil
}

// CompactCheckpoints folds a base checkpoint file plus an ordered delta
// chain into one full checkpoint at outPath, written with the crash-safe
// temp-fsync-rename discipline. The compacted file carries the tip's WAL
// coverage and user metadata, so once it has durably replaced the chain
// the caller may drop the delta files and truncate the WAL through the
// tip's position (TruncateWALThrough) — this is what bounds chain length
// and log growth. Compaction runs in a throwaway RAM engine; cfg supplies
// deployment knobs but sketches are forced into memory and the WAL off.
func CompactCheckpoints(outPath, basePath string, deltaPaths []string, cfg Config) error {
	cfg.SketchesOnDisk = false
	cfg.Dir = ""
	cfg.WAL = false
	cfg.WALStorage = nil
	cfg.NoRebalance = true
	e, err := OpenCheckpoint(basePath, cfg)
	if err != nil {
		return fmt.Errorf("core: compacting chain base %s: %w", basePath, err)
	}
	defer e.Close()
	for _, p := range deltaPaths {
		f, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("core: compacting chain delta %s: %w", p, err)
		}
		err = e.ApplyDeltaCheckpoint(f, nil)
		f.Close()
		if err != nil {
			return fmt.Errorf("core: compacting chain delta %s: %w", p, err)
		}
	}
	return e.WriteCheckpointFile(outPath)
}
