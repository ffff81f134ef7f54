package gzserve

import (
	"fmt"

	"graphzeppelin/internal/stream"
)

// Partitioner routes stream updates across K parts by node range: an
// update goes to the part owning its lower endpoint's node range
// (contiguous ⌈n/K⌉-node slices). Linearity makes any routing policy
// correct — the merged sketches are the XOR of whatever each part saw —
// so the policy only decides locality and balance. Range routing is
// deterministic, so a retried batch re-partitions identically, and
// range-local: edges inside a community tend to revisit one worker's
// gutters. A Partitioner is immutable and safe for concurrent use.
type Partitioner struct {
	k        int
	numNodes uint32
	nodesPer uint32
}

// NewRangePartitioner partitions the node universe [0, numNodes) into k
// contiguous ranges; updates route by their lower endpoint.
func NewRangePartitioner(numNodes uint32, k int) (*Partitioner, error) {
	if k <= 0 {
		return nil, fmt.Errorf("gzserve: partitioner needs k >= 1, got %d", k)
	}
	if numNodes == 0 {
		return nil, fmt.Errorf("gzserve: partitioner needs a node universe")
	}
	nodesPer := (numNodes + uint32(k) - 1) / uint32(k)
	return &Partitioner{k: k, numNodes: numNodes, nodesPer: nodesPer}, nil
}

// Parts returns K.
func (p *Partitioner) Parts() int { return p.k }

// Part returns the destination part for one update.
func (p *Partitioner) Part(u stream.Update) int {
	lo := u.Edge.U
	if u.Edge.V < lo {
		lo = u.Edge.V
	}
	part := int(lo / p.nodesPer)
	if part >= p.k { // nodes beyond k*nodesPer when k doesn't divide n
		part = p.k - 1
	}
	return part
}

// Range returns the node range [lo, hi) owned by part i.
func (p *Partitioner) Range(i int) (lo, hi uint32) {
	lo = uint32(i) * p.nodesPer
	hi = lo + p.nodesPer
	if hi > p.numNodes || i == p.k-1 {
		hi = p.numNodes
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Split partitions a batch into per-part sub-batches, appending onto the
// provided buffers (resliced to zero length first when reuse is nil).
// The returned slice aliases bufs when it has k entries.
func (p *Partitioner) Split(ups []stream.Update, bufs [][]stream.Update) [][]stream.Update {
	if len(bufs) != p.k {
		bufs = make([][]stream.Update, p.k)
	}
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	for _, u := range ups {
		i := p.Part(u)
		bufs[i] = append(bufs[i], u)
	}
	return bufs
}
