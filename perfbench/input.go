package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"

	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// streamCacheKeep bounds the generated streams kept on disk: a kron12
// stream is ~55 MB and takes ~9 s to generate, so a few are worth
// keeping across runs with the same seed, many are not.
const streamCacheKeep = 6

var cacheMagic = []byte("GZPB1\n")

// loadStream returns the dense Kronecker stream for (scale, seed),
// generating it with kron.DenseKronecker + kron.ToStream or reading it
// from cacheDir when an earlier run stored it. cacheDir "" disables the
// cache. Generation is set-up: no timer covers it.
func loadStream(scale int, seed uint64, cacheDir string) (kron.Result, error) {
	path := ""
	if cacheDir != "" {
		path = filepath.Join(cacheDir, fmt.Sprintf("kron%d-seed%d.bin", scale, seed))
		if res, err := readStream(path); err == nil {
			return res, nil
		}
	}
	n := uint32(1) << scale
	res := kron.ToStream(kron.DenseKronecker(scale, seed), n, kron.StreamOptions{}, seed)
	if path != "" {
		if err := writeStream(path, res); err != nil {
			return kron.Result{}, err
		}
		pruneCache(cacheDir)
	}
	return res, nil
}

// The cache file is the magic, then node count, update count and final
// edge count as little-endian integers, then the updates and the final
// edges (as insertions) in the stream package's 9-byte record codec.
func writeStream(path string, res kron.Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf := append([]byte(nil), cacheMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, res.NumNodes)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(res.Updates)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(res.FinalEdges)))
	buf = stream.AppendUpdates(buf, res.Updates)
	for _, e := range res.FinalEdges {
		buf = stream.AppendUpdate(buf, stream.Update{Edge: e, Type: stream.Insert})
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readStream(path string) (kron.Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return kron.Result{}, err
	}
	hdr := len(cacheMagic) + 4 + 8 + 8
	if len(b) < hdr || !bytes.Equal(b[:len(cacheMagic)], cacheMagic) {
		return kron.Result{}, errors.New("stream cache: bad header")
	}
	p := b[len(cacheMagic):]
	res := kron.Result{NumNodes: binary.LittleEndian.Uint32(p)}
	nu := binary.LittleEndian.Uint64(p[4:])
	ne := binary.LittleEndian.Uint64(p[12:])
	all, err := stream.DecodeUpdates(b[hdr:])
	if err != nil {
		return kron.Result{}, err
	}
	if uint64(len(all)) != nu+ne {
		return kron.Result{}, errors.New("stream cache: truncated")
	}
	res.Updates = all[:nu:nu]
	for _, u := range all[nu:] {
		res.FinalEdges = append(res.FinalEdges, u.Edge)
	}
	return res, nil
}

// pruneCache keeps the streamCacheKeep most recently written streams.
func pruneCache(dir string) {
	paths, _ := filepath.Glob(filepath.Join(dir, "kron*.bin"))
	type entry struct {
		path string
		mod  int64
	}
	var es []entry
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			es = append(es, entry{p, fi.ModTime().UnixNano()})
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(b.mod, a.mod) })
	for i := streamCacheKeep; i < len(es); i++ {
		os.Remove(es[i].path)
	}
}

// toggler makes the batches of the query tail and of refresh rounds.
// A batch touching a share f of the nodes pairs up the first f·n nodes of
// a fresh random permutation and toggles each pair's edge, so it touches
// exactly that many distinct nodes and no edge twice. The oracle decides
// whether each toggle is an insertion or a deletion, which keeps the
// stream legal.
type toggler struct {
	rng  *rand.Rand
	perm []uint32
}

func newToggler(n uint32, seed uint64) *toggler {
	t := &toggler{rng: rand.New(rand.NewPCG(seed, 0x746f67676c6572)), perm: make([]uint32, n)}
	for i := range t.perm {
		t.perm[i] = uint32(i)
	}
	return t
}

func (t *toggler) batch(o *oracle, frac float64) []stream.Update {
	k := int(frac * float64(len(t.perm)) / 2)
	k = max(1, min(k, len(t.perm)/2))
	for i := 0; i < 2*k; i++ {
		j := i + t.rng.IntN(len(t.perm)-i)
		t.perm[i], t.perm[j] = t.perm[j], t.perm[i]
	}
	ups := make([]stream.Update, k)
	for i := range ups {
		e := stream.Edge{U: t.perm[2*i], V: t.perm[2*i+1]}.Normalize()
		ups[i] = o.toggle(e)
	}
	return ups
}
