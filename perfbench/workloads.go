package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hetsort"
	"hetsort/internal/progress"
)

// workload is one input and configuration the benchmark sorts back to
// back.  README.md records why each one exists and which layers it
// bypasses.
type workload struct {
	name string
	keys int64 // requested input size, rounded up to an Equation-2 size
	gen  func(n int, r *rand.Rand) []uint32
	cfg  hetsort.Config
	// onDisk sorts a staged host file with SortFile and node disks in a
	// directory; otherwise the keys go through Sort with in-memory disks.
	onDisk bool
}

var workloads = []workload{
	{
		name: "mem-paper",
		keys: 1 << 20,
		gen:  uniformKeys,
		cfg:  hetsort.Config{Perf: []int{1, 1, 4, 4}},
	},
	{
		name:   "dir-presorted",
		keys:   1 << 22,
		gen:    nearlySortedKeys,
		onDisk: true,
		cfg: hetsort.Config{
			Perf:         []int{1, 1, 4, 4},
			RunFormation: hetsort.RunGuidesort,
			Pipeline:     true,
			Overlap:      true,
			Checkpoint:   hetsort.CheckpointConfig{Enabled: true},
		},
	},
	{
		name: "wide-hostile",
		keys: 1 << 20,
		gen:  zipfS2Keys,
		cfg: hetsort.Config{
			Perf:          widePerf(),
			Topology:      hetsort.TopologyTree,
			Radix:         4,
			PivotStrategy: hetsort.PivotHistogram,
		},
	},
}

// widePerf is 64 nodes in four speed classes, 16 of each.
func widePerf() []int {
	v := make([]int, 0, 64)
	for i := 0; i < 16; i++ {
		v = append(v, 1, 2, 4, 8)
	}
	return v
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func uniformKeys(n int, r *rand.Rand) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.Uint32()
	}
	return out
}

// nearlySortedKeys is an evenly spaced ascending sequence with 1% of
// positions swapped at random.
func nearlySortedKeys(n int, r *rand.Rand) []uint32 {
	out := make([]uint32, n)
	step := math.MaxUint32 / float64(n)
	for i := range out {
		out[i] = uint32(float64(i) * step)
	}
	for s := 0; s < n/100; s++ {
		i, j := r.Intn(n), r.Intn(n)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// zipfS2Keys draws 2^16 distinct values with Zipf exponent 2, so the
// smallest key alone is about 60% of the input.
func zipfS2Keys(n int, r *rand.Rand) []uint32 {
	z := rand.NewZipf(r, 2, 1, 1<<16-1)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Uint64() << 12)
	}
	return out
}

// fingerprint is the part of a report that must not change between
// sorts of the same input: the paper's cost-model results.
type fingerprint struct {
	vsec      float64
	blockIOs  int64
	expansion float64
}

func fingerprintOf(r *hetsort.Report) fingerprint {
	return fingerprint{r.Time, r.ReadBlocks + r.WriteBlocks, r.SublistExpansion}
}

// bench is one workload's generated input, its oracle and the
// directory it sorts in.
type bench struct {
	w    workload
	seed int64
	dir  string
	keys []uint32
	want oracle
	ref  *hetsort.Report // of the run's first sort
}

func (b *bench) inputPath() string  { return filepath.Join(b.dir, "input.u32") }
func (b *bench) outputPath() string { return filepath.Join(b.dir, "output.u32") }
func (b *bench) nodesDir() string   { return filepath.Join(b.dir, "nodes") }

// setup generates the input from the seed, computes the oracle, stages
// the input file for an on-disk workload and runs one untimed warm-up
// sort.  The first setup's sort becomes the reference every later sort
// must reproduce.
func (b *bench) setup() error {
	n, err := hetsort.ValidSize(b.w.cfg.Perf, b.w.keys)
	if err != nil {
		return err
	}
	b.keys = b.w.gen(int(n), rand.New(rand.NewSource(b.seed)))
	b.want = newOracle(b.keys)
	if b.w.onDisk {
		if err := os.MkdirAll(b.dir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(b.inputPath(), encodeKeys(b.keys), 0o644); err != nil {
			return err
		}
	}
	r := b.sortOnce(0)
	if r.err != nil {
		return fmt.Errorf("warm-up sort: %w", r.err)
	}
	if b.ref == nil {
		b.ref = r.rep
	}
	return nil
}

// sortResult is one facade call: its host costs, its report, whether
// its output was correct and, when traced, the progress polls.
type sortResult struct {
	wall, cpu float64 // seconds
	alloc     float64 // bytes
	peakRSS   float64 // MiB
	gcCycles  float64
	gcCPU     float64 // seconds
	rep       *hetsort.Report
	obs       []observation
	err       error
}

type hostCounters struct {
	at                     time.Time
	cpu                    float64
	alloc, gcCycles, gcCPU float64
}

// readHost reads the process's CPU time and the Go runtime's
// allocation and GC counters.
func readHost() hostCounters {
	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(rt)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostCounters{
		at:       time.Now(),
		cpu:      tvSec(ru.Utime) + tvSec(ru.Stime),
		alloc:    float64(rt[0].Value.Uint64()),
		gcCycles: float64(rt[1].Value.Uint64()),
		gcCPU:    rt[2].Value.Float64(),
	}
}

func tvSec(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set, so that the next peakRSSMiB
// covers only what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark, VmHWM.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// sortOnce runs one sort through the public facade and checks its
// output against the oracle and, once there is a reference sort, its
// cost-model results against the reference's.  Only the facade call is
// timed.  A non-zero poll interval samples a progress tracker while the
// sort runs.
func (b *bench) sortOnce(poll time.Duration) sortResult {
	cfg := b.w.cfg
	var smp *sampler
	if poll > 0 {
		cfg.Progress = progress.NewTracker()
		smp = &sampler{tr: cfg.Progress, every: poll}
	}
	if b.w.onDisk {
		cfg.WorkDir = b.nodesDir()
		if err := os.RemoveAll(cfg.WorkDir); err != nil {
			return sortResult{err: err}
		}
	}

	// Start every sort from a collected heap with its free memory
	// returned to the system, so that neither the previous sort's
	// garbage nor its verification buffers count towards this one.
	debug.FreeOSMemory()
	var r sortResult
	var out []uint32
	if r.err = resetPeakRSS(); r.err != nil {
		return r
	}
	h0 := readHost()
	if smp != nil {
		smp.start(h0.at)
	}
	if b.w.onDisk {
		r.rep, r.err = hetsort.SortFile(b.inputPath(), b.outputPath(), cfg)
	} else {
		out, r.rep, r.err = hetsort.Sort(b.keys, cfg)
	}
	h1 := readHost()
	if smp != nil {
		r.obs = smp.stop(h1.at)
	}
	r.wall = h1.at.Sub(h0.at).Seconds()
	r.cpu = h1.cpu - h0.cpu
	r.alloc = h1.alloc - h0.alloc
	r.gcCycles = h1.gcCycles - h0.gcCycles
	r.gcCPU = h1.gcCPU - h0.gcCPU
	if r.err != nil {
		return r
	}
	if r.peakRSS, r.err = peakRSSMiB(); r.err != nil {
		return r
	}

	if b.w.onDisk {
		raw, err := os.ReadFile(b.outputPath())
		if err == nil {
			out, err = decodeKeys(raw)
		}
		if err != nil {
			r.err = err
			return r
		}
	}
	if err := b.want.check(out); err != nil {
		r.err = err
	} else if b.ref != nil && fingerprintOf(r.rep) != fingerprintOf(b.ref) {
		r.err = fmt.Errorf("cost model drifted: %+v, first sort had %+v", fingerprintOf(r.rep), fingerprintOf(b.ref))
	}
	return r
}
