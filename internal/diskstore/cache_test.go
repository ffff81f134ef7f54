package diskstore

import (
	"testing"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/iomodel"
)

// Sketch geometry of every cache fixture.
const (
	fixtureVecLen  = 1 << 10
	fixtureColumns = 3
)

var fixtureSeeds = []uint64{1, 2}

// fixtureSlab allocates a decoded arena of count nodes in the fixture
// geometry.
func fixtureSlab(count int) *cubesketch.Slab {
	return cubesketch.NewSlab(count, fixtureVecLen, fixtureColumns, fixtureSeeds)
}

// cacheFixture builds a grouped store of numNodes sketches (initialized to
// the empty encoding) plus a cache with the given byte budget.
func cacheFixture(t *testing.T, numNodes uint32, npg int, budget int64, shards int) (*Store, *Cache, *iomodel.MemDevice) {
	t.Helper()
	proto := fixtureSlab(1)
	slot := proto.NodeSize()
	dev := iomodel.NewMem(512)
	st, err := New(dev, numNodes, slot, npg)
	if err != nil {
		t.Fatal(err)
	}
	empty := make([]byte, slot)
	proto.MarshalNode(0, empty)
	for n := uint32(0); n < numNodes; n++ {
		if err := st.Write(n, empty); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(st, CacheConfig{
		Bytes:   budget,
		Shards:  shards,
		NewSlab: func() *cubesketch.Slab { return fixtureSlab(npg) },
	})
	return st, c, dev
}

func TestCacheHitMissAndResidency(t *testing.T) {
	st, c, _ := cacheFixture(t, 8, 2, 1<<30, 1)
	before := st.Stats()
	// First touch of group 0 is a miss (one group read), second is a hit
	// with zero device traffic.
	if err := c.Apply(0, []uint64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(1, []uint64{2}, nil); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if got := after.ReadOps - before.ReadOps; got != 1 {
		t.Fatalf("two applies to one group cost %d reads, want 1", got)
	}
	if after.WriteOps != before.WriteOps {
		t.Fatal("apply path wrote to the device")
	}
	cs := c.Stats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.CachedGroups != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 group", cs)
	}
	if _, ok := c.Peek(0); !ok {
		t.Fatal("group 0 not peekable after apply")
	}
	if _, ok := c.Peek(3); ok {
		t.Fatal("never-touched group peekable")
	}
}

func TestCacheEvictionWritesBackAndPersists(t *testing.T) {
	st, c, _ := cacheFixture(t, 8, 2, 1, 1) // budget floor: one resident group
	idx := []uint64{7}
	if err := c.Apply(0, idx, nil); err != nil { // group 0 resident, dirty
		t.Fatal(err)
	}
	if err := c.Apply(4, idx, nil); err != nil { // evicts group 0 (write-back)
		t.Fatal(err)
	}
	cs := c.Stats()
	if cs.Evictions != 1 || cs.WriteBacks != 1 || cs.CachedGroups != 1 {
		t.Fatalf("stats = %+v, want 1 eviction / 1 write-back / 1 resident", cs)
	}
	// Reloading group 0 must see the applied toggle: apply the same index
	// again (cancelling it), write everything back, and check the slot is
	// byte-identical to the empty encoding.
	if err := c.Apply(0, idx, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, st.SlotSize())
	if err := st.Read(0, slot); err != nil {
		t.Fatal(err)
	}
	empty := make([]byte, st.SlotSize())
	if err := st.Read(3, empty); err != nil { // node 3 was never touched
		t.Fatal(err)
	}
	if string(slot) != string(empty) {
		t.Fatal("toggle did not cancel through an eviction round trip")
	}
}

func TestCacheInvalidateDropsEntries(t *testing.T) {
	_, c, _ := cacheFixture(t, 8, 2, 1<<30, 2)
	if err := c.Apply(0, []uint64{3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	cs := c.Stats()
	if cs.CachedGroups != 0 || cs.CachedBytes != 0 {
		t.Fatalf("entries survive Invalidate: %+v", cs)
	}
	if _, ok := c.Peek(0); ok {
		t.Fatal("invalidated group still peekable")
	}
}

func TestCacheWriteBarrierSeesPreImage(t *testing.T) {
	st, c, _ := cacheFixture(t, 4, 2, 1<<30, 1)
	if err := c.Apply(0, []uint64{5}, nil); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	needed := true
	c.SetWriteBarrier(&WriteBarrier{
		NeedPreImage: func(uint32, int) bool { return needed },
		Deposit: func(start uint32, count int, pre []byte) {
			for j := 0; j < count; j++ {
				got = append(got, append([]byte(nil), pre[j*st.SlotSize():(j+1)*st.SlotSize()]...))
			}
			_ = start
		},
	})
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("barrier saw %d slots, want 2", len(got))
	}
	// The pre-image is the device state before the write-back: the empty
	// encoding, not the dirtied sketch.
	empty := make([]byte, st.SlotSize())
	if err := st.Read(3, empty); err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != string(empty) {
		t.Fatal("barrier pre-image is not the pre-write device bytes")
	}
	dirty := make([]byte, st.SlotSize())
	if err := st.Read(0, dirty); err != nil {
		t.Fatal(err)
	}
	if string(dirty) == string(empty) {
		t.Fatal("write-back did not reach the device")
	}
	// When NeedPreImage reports false (the snapshot scanner has passed the
	// section), the write-back must skip both the deposit and the
	// pre-image device read.
	got = got[:0]
	needed = false
	if err := c.Apply(0, []uint64{9}, nil); err != nil {
		t.Fatal(err)
	}
	readsBefore := st.Stats().ReadOps
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("barrier deposited despite NeedPreImage=false")
	}
	if st.Stats().ReadOps != readsBefore {
		t.Fatal("write-back read a pre-image despite NeedPreImage=false")
	}

	// A cleared barrier stays cleared.
	c.SetWriteBarrier(nil)
	if err := c.Apply(0, []uint64{11}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("cleared barrier still invoked")
	}
}

// TestCacheApplyPreImage pins the before-image hook: Apply with a pre
// buffer hands back the node's exact pre-apply serialization whether the
// group was resident (hit), just filled from the device (miss), or
// re-filled after an eviction wrote it back.
func TestCacheApplyPreImage(t *testing.T) {
	st, c, _ := cacheFixture(t, 8, 2, 1, 1) // budget floor: one resident group
	ref := fixtureSlab(8)                   // the same batches, applied in RAM
	want := make([]byte, st.SlotSize())
	pre := make([]byte, st.SlotSize())
	apply := func(node uint32, idx uint64) {
		t.Helper()
		ref.MarshalNode(int(node), want)
		if err := c.Apply(node, []uint64{idx}, pre); err != nil {
			t.Fatal(err)
		}
		ref.Apply(int(node), []uint64{idx})
	}
	check := func(regime string, node uint32, idx uint64, hits, misses, evictions uint64) {
		t.Helper()
		clear(pre)
		apply(node, idx)
		if string(pre) != string(want) {
			t.Fatalf("%s: pre-image of node %d differs from its pre-apply serialization", regime, node)
		}
		if cs := c.Stats(); cs.Hits != hits || cs.Misses != misses || cs.Evictions != evictions {
			t.Fatalf("%s: stats = %+v, want %d hits / %d misses / %d evictions", regime, cs, hits, misses, evictions)
		}
	}
	check("miss-fill", 0, 1, 0, 1, 0)
	check("hit", 0, 2, 1, 1, 0)
	check("hit, second node of the group", 1, 3, 2, 1, 0)
	check("miss evicting a dirty group", 4, 4, 2, 2, 1)
	check("re-fill after write-back", 0, 5, 2, 3, 2)
	if c.Stats().WriteBacks != 2 {
		t.Fatalf("write-backs = %d, want 2 (both evicted groups were dirty)", c.Stats().WriteBacks)
	}
}

// TestCacheApplyPreImageLeavesStateAlone checks that capturing a
// pre-image changes nothing else: the same batches applied with and
// without pre buffers leave byte-identical device slots, equal to the
// batches applied to a plain RAM arena.
func TestCacheApplyPreImageLeavesStateAlone(t *testing.T) {
	const n = 8
	stNil, cNil, _ := cacheFixture(t, n, 2, 1, 1)
	stPre, cPre, _ := cacheFixture(t, n, 2, 1, 1)
	ref := fixtureSlab(n)
	pre := make([]byte, stPre.SlotSize())
	for i := uint64(0); i < 40; i++ {
		node := uint32(i*5) % n
		idx := []uint64{i * 7 % 97}
		if err := cNil.Apply(node, idx, nil); err != nil {
			t.Fatal(err)
		}
		if err := cPre.Apply(node, idx, pre); err != nil {
			t.Fatal(err)
		}
		ref.Apply(int(node), idx)
	}
	if err := cNil.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if err := cPre.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, stNil.SlotSize())
	b := make([]byte, stPre.SlotSize())
	want := make([]byte, stNil.SlotSize())
	for node := uint32(0); node < n; node++ {
		if err := stNil.Read(node, a); err != nil {
			t.Fatal(err)
		}
		if err := stPre.Read(node, b); err != nil {
			t.Fatal(err)
		}
		ref.MarshalNode(int(node), want)
		if string(a) != string(want) {
			t.Fatalf("node %d: Apply(..., nil) stored bytes differ from the RAM reference", node)
		}
		if string(b) != string(a) {
			t.Fatalf("node %d: capturing pre-images changed the stored bytes", node)
		}
	}
}
