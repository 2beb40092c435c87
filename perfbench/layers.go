package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hetsort/internal/checkpoint"
	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/merkle"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
)

// probeReps is how often each layer probe repeats; probes report the
// median repetition.
const probeReps = 5

const mib = 1 << 20

// medianOf runs f reps times and returns the median of the seconds it
// reports, so f can leave its preparation out of the measurement.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		var err error
		if ts[i], err = f(); err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}

// timeMedian runs f reps times and returns its median wall time in
// seconds.
func timeMedian(reps int, f func() error) (float64, error) {
	return medianOf(reps, func() (float64, error) {
		t := time.Now()
		err := f()
		return time.Since(t).Seconds(), err
	})
}

// shapes are the sizes the sort used, which the probes reproduce.
type shapes struct {
	p                          int
	block, memory, tapes, msgs int
	portion                    []uint32 // the largest node's input portion
	shares                     []int64
}

func (b *bench) shapes() shapes {
	cfg := b.w.cfg
	ec := extsort.Config{Perf: perf.Vector(cfg.Perf), BlockKeys: cfg.BlockKeys,
		MemoryKeys: cfg.MemoryKeys, Tapes: cfg.Tapes, MessageKeys: cfg.MessageKeys}
	ec.ApplyDefaults(len(cfg.Perf))
	s := shapes{p: len(cfg.Perf), block: ec.BlockKeys, memory: ec.MemoryKeys,
		tapes: ec.Tapes, msgs: ec.MessageKeys}
	s.shares = ec.Perf.Shares(int64(len(b.keys)))
	var off int64
	for _, sh := range s.shares {
		if sh > int64(len(s.portion)) {
			s.portion = b.keys[off : off+sh]
		}
		off += sh
	}
	return s
}

// freshFS returns an empty filesystem of the kind the workload's nodes
// use, and a function that disposes of it.
func (b *bench) freshFS() (diskio.FS, func(), error) {
	if !b.w.onDisk {
		return diskio.NewMemFS(), func() {}, nil
	}
	dir := filepath.Join(b.dir, "probe")
	if err := os.RemoveAll(dir); err != nil {
		return nil, func() {}, err
	}
	fs, err := diskio.NewDirFS(dir)
	return fs, func() { os.RemoveAll(dir) }, err
}

// probeLayers times direct calls into each layer's public functions at
// the workload's shapes.  Layers the workload's configuration does not
// use report 0.
func (b *bench) probeLayers() (map[string]float64, error) {
	s := b.shapes()
	m := map[string]float64{}
	probes := []func(shapes, map[string]float64) error{
		b.probeDiskio, b.probePolyphase, b.probeMerge, b.probeCluster,
	}
	if b.w.cfg.Checkpoint.Enabled {
		probes = append(probes, b.probeCheckpoint)
	} else {
		m["checkpoint.hash_mb_s"], m["checkpoint.save_s"] = 0, 0
	}
	for _, p := range probes {
		if err := p(s, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func writePortion(fs diskio.FS, keys []uint32, block int) error {
	f, err := fs.Create("portion")
	if err != nil {
		return err
	}
	w := diskio.NewWriter(f, block, diskio.Accounting{})
	if err := w.WriteKeys(keys); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeDiskio streams the largest portion through diskio.NewWriter and
// back through diskio.NewReader.
func (b *bench) probeDiskio(s shapes, m map[string]float64) error {
	mb := float64(4*len(s.portion)) / mib
	var fs diskio.FS
	cleanup := func() {}
	defer func() { cleanup() }()
	wt, err := medianOf(probeReps, func() (float64, error) {
		cleanup()
		var err error
		if fs, cleanup, err = b.freshFS(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = writePortion(fs, s.portion, s.block)
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return fmt.Errorf("diskio write probe: %w", err)
	}
	buf := make([]uint32, s.block)
	rt, err := timeMedian(probeReps, func() error {
		f, err := fs.Open("portion")
		if err != nil {
			return err
		}
		defer f.Close()
		r := diskio.NewReader(f, s.block, diskio.Accounting{})
		defer r.Release()
		var got int
		for {
			n, err := r.ReadKeys(buf)
			got += n
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		if got != len(s.portion) {
			return fmt.Errorf("read back %d keys, wrote %d", got, len(s.portion))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("diskio read probe: %w", err)
	}
	m["diskio.write_mb_s"], m["diskio.read_mb_s"] = mb/wt, mb/rt
	return nil
}

func (b *bench) runFormation() (polyphase.RunFormation, error) {
	name := b.w.cfg.RunFormation
	if name == "" {
		return polyphase.ReplacementSelection, nil
	}
	for _, rf := range []polyphase.RunFormation{polyphase.ReplacementSelection, polyphase.LoadSort, polyphase.Guidesort} {
		if rf.String() == name {
			return rf, nil
		}
	}
	return 0, fmt.Errorf("unknown run formation %q", name)
}

// probePolyphase externally sorts the largest portion with the
// workload's run former, memory and tape count (step 1 of one node).
func (b *bench) probePolyphase(s shapes, m map[string]float64) error {
	rf, err := b.runFormation()
	if err != nil {
		return err
	}
	var st polyphase.Stats
	first := true
	t, err := medianOf(probeReps, func() (float64, error) {
		fs, cleanup, err := b.freshFS()
		if err != nil {
			return 0, err
		}
		defer cleanup()
		if err := writePortion(fs, s.portion, s.block); err != nil {
			return 0, err
		}
		t0 := time.Now()
		st, err = polyphase.Sort(polyphase.Config{FS: fs, BlockKeys: s.block, MemoryKeys: s.memory,
			Tapes: s.tapes, RunFormation: rf}, "portion", "sorted")
		t := time.Since(t0).Seconds()
		if err != nil || !first {
			return t, err
		}
		first = false
		out, err := diskio.ReadFileAll(fs, "sorted", s.block, diskio.Accounting{})
		if err == nil && (len(out) != len(s.portion) || !slices.IsSorted(out)) {
			err = errors.New("output is not the sorted portion")
		}
		return t, err
	})
	if err != nil {
		return fmt.Errorf("polyphase sort probe: %w", err)
	}
	m["polyphase.sort_ns_per_key"] = t * 1e9 / float64(len(s.portion))
	m["polyphase.runs"], m["polyphase.phases"] = float64(st.Runs), float64(st.Phases)
	return nil
}

// probeMerge merges p sources, each one sorted sublist of the largest
// final partition delivered a block at a time, with polyphase.MergeOpt
// (step 5 of the busiest node).
func (b *bench) probeMerge(s shapes, m map[string]float64) error {
	sorted := slices.Clone(b.keys)
	slices.Sort(sorted)
	var off, size int64
	var cur int64
	for _, n := range b.ref.PartitionSizes {
		if n > size {
			off, size = cur, n
		}
		cur += n
	}
	part := sorted[off : off+size]
	lists := make([][]uint32, s.p)
	for i, k := range part {
		lists[i%s.p] = append(lists[i%s.p], k)
	}
	out := make([]uint32, 0, len(part))
	t, err := timeMedian(probeReps, func() error {
		srcs := make([]polyphase.MergeSource, s.p)
		for i, l := range lists {
			srcs[i] = &sliceSource{keys: l, block: s.block}
		}
		out = out[:0]
		if err := polyphase.MergeOpt(srcs, nil, func(c []uint32) error {
			out = append(out, c...)
			return nil
		}, polyphase.MergeOptions{}); err != nil {
			return err
		}
		if !slices.Equal(out, part) {
			return errors.New("merged output differs from the partition")
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("merge probe: %w", err)
	}
	m["polyphase.merge_ns_per_key"] = t * 1e9 / float64(len(part))
	return nil
}

// sliceSource serves a sorted slice to the merge kernel one block at a
// time, as a file-backed run or a message stream does.
type sliceSource struct {
	keys            []uint32
	block, pos, end int
}

func (s *sliceSource) Buffered() []uint32 { return s.keys[s.pos:s.end] }
func (s *sliceSource) Discard(n int)      { s.pos += n }
func (s *sliceSource) Fill() error {
	if s.pos >= len(s.keys) {
		return io.EOF
	}
	s.end = min(s.pos+s.block, len(s.keys))
	return nil
}

// probeCluster moves the redistribution volume — every node's portion,
// split evenly over the p destinations — through cluster.Run as an
// all-to-all in MessageKeys-key messages.
func (b *bench) probeCluster(s shapes, m map[string]float64) error {
	v := perf.Vector(b.w.cfg.Perf)
	count := func(from, to int) int64 {
		c := s.shares[from] / int64(s.p)
		if int64(to) < s.shares[from]%int64(s.p) {
			c++
		}
		return c
	}
	var remote, maxLink int64
	for i := 0; i < s.p; i++ {
		for j := 0; j < s.p; j++ {
			if i != j {
				remote += count(i, j)
				maxLink = max(maxLink, count(i, j))
			}
		}
	}
	const tag = 1
	t, err := medianOf(probeReps, func() (float64, error) {
		cl, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: s.block})
		if err != nil {
			return 0, err
		}
		cl.EnsureLinkCapacity(cluster.LinkBound(maxLink, s.msgs))
		t0 := time.Now()
		err = cl.Run(func(n *cluster.Node) error {
			me := n.ID()
			for to := 0; to < s.p; to++ {
				if to == me {
					continue
				}
				for left := count(me, to); left > 0; {
					k := min(left, int64(s.msgs))
					buf := n.AcquireBuf(int(k))
					copy(buf, b.keys)
					if err := n.SendOwned(to, tag, buf); err != nil {
						return err
					}
					left -= k
				}
			}
			for from := 0; from < s.p; from++ {
				if from == me {
					continue
				}
				for left := count(from, me); left > 0; {
					keys, err := n.Recv(from, tag)
					if err != nil {
						return err
					}
					left -= int64(len(keys))
					n.ReleaseBuf(keys)
				}
			}
			return nil
		})
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	m["cluster.exchange_mb_s"] = float64(4*remote) / mib / t
	return nil
}

// probeCheckpoint hashes the largest portion with checkpoint.HashFile
// and commits a manifest anchoring p files under a merkle.New root
// with checkpoint.Save, as every checkpointed phase boundary does.
func (b *bench) probeCheckpoint(s shapes, m map[string]float64) error {
	fs, cleanup, err := b.freshFS()
	if err != nil {
		return err
	}
	defer cleanup()
	if err := writePortion(fs, s.portion, s.block); err != nil {
		return err
	}
	var sum string
	ht, err := timeMedian(probeReps, func() error {
		var err error
		sum, err = checkpoint.HashFile(fs, "portion", s.block, diskio.Accounting{})
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint hash probe: %w", err)
	}
	if want := sha256.Sum256(encodeKeys(s.portion)); sum != hex.EncodeToString(want[:]) {
		return errors.New("checkpoint.HashFile disagrees with crypto/sha256")
	}
	raw, err := hex.DecodeString(sum)
	if err != nil {
		return err
	}
	leaves := make([]merkle.Leaf, s.p)
	files := make([]checkpoint.FileInfo, s.p)
	for i := range leaves {
		leaves[i].Name = fmt.Sprintf("recv.%d", i)
		copy(leaves[i].Sum[:], raw)
		files[i] = checkpoint.FileInfo{Name: leaves[i].Name, Keys: int64(len(s.portion)), SHA256: sum}
	}
	st, err := timeMedian(probeReps, func() error {
		t, err := merkle.New(leaves)
		if err != nil {
			return err
		}
		root := t.Root()
		man := &checkpoint.Manifest{P: s.p, Phase: checkpoint.Phases, Files: files, Root: hex.EncodeToString(root[:])}
		return checkpoint.Save(fs, man, diskio.Accounting{})
	})
	if err != nil {
		return fmt.Errorf("checkpoint save probe: %w", err)
	}
	m["checkpoint.hash_mb_s"] = float64(4*len(s.portion)) / mib / ht
	m["checkpoint.save_s"] = st
	return nil
}
