// Package experiments regenerates every table, figure and in-text
// result of the paper's evaluation (section 5) on the simulated
// cluster, printing measured values side by side with the paper's.
//
// The paper's experiments ran on four Alpha 21164 nodes, two of them
// artificially loaded 4x, over Fast Ethernet and Myrinet, on inputs of
// 2^21..2^25 integers with 30 repetitions.  We reproduce the same
// experiment definitions; Options.SizeShift scales the input sizes down
// (dividing by 2^shift) so the suite runs in seconds while preserving
// every comparison the paper makes.  Absolute virtual times at shift 0
// are calibrated to land near the paper's wall-clock numbers.
package experiments

import (
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/stats"
)

// PaperVector is the perf vector the paper calibrates for its cluster:
// nodes 0,1 are the loaded (4x slower) machines, nodes 2,3 the fast
// ones, so the vector reads {1,1,4,4} exactly as in the paper.
var PaperVector = perf.Vector{1, 1, 4, 4}

// Options scales and parameterises the whole suite.
type Options struct {
	// SizeShift right-shifts every paper input size (default 6:
	// 2^21 -> 32768 keys, 2^25 -> 524288 keys).  Shift 0 reproduces
	// the paper's full sizes (slow: tens of millions of real keys).
	SizeShift uint
	// Trials is the number of repetitions per measurement (paper: 30;
	// default 5).  Each trial uses a different input seed.
	Trials int
	// BlockKeys is the disk block size B (default 2048 keys = 8 KiB,
	// scaled down with SizeShift to keep n/B meaningful, min 64).
	BlockKeys int
	// MemoryKeys is the per-node memory M (default 2^20 scaled by
	// SizeShift, min Tapes*BlockKeys*2).
	MemoryKeys int
	// Tapes is the polyphase file count (default 15, as the paper).
	Tapes int
	// MessageKeys is the redistribution message size (default 8192
	// integers = the paper's 32 Kb).
	MessageKeys int
	// OnDisk uses real temporary directories instead of in-memory
	// filesystems.
	OnDisk bool
	// TempDir is the root for OnDisk mode.
	TempDir string
	// Seed offsets every trial's input seed.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.SizeShift == 0 && o.BlockKeys == 0 {
		// Full scale: the paper's parameters.
		o.BlockKeys = 2048
	}
	if o.Tapes <= 0 {
		o.Tapes = 15
	}
	if o.BlockKeys <= 0 {
		o.BlockKeys = 2048 >> min(o.SizeShift, 5)
		if o.BlockKeys < 64 {
			o.BlockKeys = 64
		}
	}
	if o.MemoryKeys <= 0 {
		o.MemoryKeys = int(int64(1<<20) >> o.SizeShift)
		if floor := o.Tapes * o.BlockKeys * 2; o.MemoryKeys < floor {
			o.MemoryKeys = floor
		}
	}
	if o.MessageKeys <= 0 {
		o.MessageKeys = 8192 >> min(o.SizeShift, 5)
		if o.MessageKeys < o.BlockKeys {
			o.MessageKeys = o.BlockKeys
		}
	}
	return o
}

func min(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

// scale applies SizeShift to a paper-scale size.
func (o Options) scale(paperSize int64) int64 {
	s := paperSize >> o.SizeShift
	if s < 1 {
		s = 1
	}
	return s
}

// disks returns the per-node FS factory.
func (o Options) disks() (func(int) diskio.FS, error) {
	if !o.OnDisk {
		return func(int) diskio.FS { return diskio.NewMemFS() }, nil
	}
	root := o.TempDir
	if root == "" {
		root = "hetsort-experiments"
	}
	return func(id int) diskio.FS {
		fs, err := diskio.NewDirFS(fmt.Sprintf("%s/node%d", root, id))
		if err != nil {
			panic(err)
		}
		return fs
	}, nil
}

// newCluster builds the paper's 4-node loaded cluster with the given
// interconnect.
func (o Options) newCluster(net cluster.NetModel) (*cluster.Cluster, error) {
	disks, err := o.disks()
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		Slowdowns: PaperVector.Slowdowns(),
		Net:       net,
		BlockKeys: o.BlockKeys,
		Disks:     disks,
	})
}

// extsortConfig assembles the Algorithm-1 configuration for a vector.
func (o Options) extsortConfig(v perf.Vector) extsort.Config {
	return extsort.Config{
		Perf:        v,
		BlockKeys:   o.BlockKeys,
		MemoryKeys:  o.MemoryKeys,
		Tapes:       o.Tapes,
		MessageKeys: o.MessageKeys,
	}
}

// polyCfg assembles a sequential-sort configuration on fs charged to
// acct.
func (o Options) polyCfg(fs diskio.FS, acct diskio.Accounting) polyphase.Config {
	return polyphase.Config{
		FS:         fs,
		BlockKeys:  o.BlockKeys,
		MemoryKeys: o.MemoryKeys,
		Tapes:      o.Tapes,
		Acct:       acct,
		TempPrefix: "tmp.",
	}
}

// runParallel distributes a fresh uniform input and runs Algorithm 1
// once with cfg, verifying the output, and returns the result.
func (o Options) runParallel(c *cluster.Cluster, cfg extsort.Config, n int64, seed int64) (*extsort.Result, error) {
	c.ResetClocks()
	sum, err := extsort.DistributeInput(c, cfg.Perf, record.Uniform, n, seed, o.BlockKeys, "input")
	if err != nil {
		return nil, err
	}
	res, err := extsort.Sort(c, cfg, "input", "output")
	if err != nil {
		return nil, err
	}
	if err := extsort.VerifyOutput(c, "output", o.BlockKeys, sum); err != nil {
		return nil, err
	}
	return res, nil
}

// PivotPartitions sorts n uniform keys on a fresh cluster of vector v
// with the given step-2 pivot strategy (overpartitioning factor 2),
// verifies the output and returns the final partition sizes: the
// measurement behind the A1 and A4 pivot ablations.
func (o Options) PivotPartitions(v perf.Vector, n int64, strat extsort.Strategy) ([]int64, error) {
	o = o.withDefaults()
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: o.BlockKeys})
	if err != nil {
		return nil, err
	}
	cfg := o.extsortConfig(v)
	cfg.Strategy, cfg.OverFactor, cfg.Seed = strat, 2, o.Seed
	res, err := o.runParallel(c, cfg, n, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", strat, err)
	}
	return res.PartitionSizes, nil
}

// trialSummary repeats a measured quantity over Options.Trials seeds.
func (o Options) trialSummary(f func(seed int64) (float64, error)) (stats.Summary, error) {
	return stats.Repeat(o.Trials, func(i int) (float64, error) {
		return f(o.Seed + int64(i)*7919)
	})
}
