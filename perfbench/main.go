// Command perfbench is hetsort's host-time benchmark.  It sorts one
// workload back to back from a single caller with no think time (a
// closed loop) through the public facade, checks every output against
// an independent oracle, and prints the end-to-end metrics; with
// -trace 1 it runs the traced run instead and prints the per-layer
// metrics.  The last line of standard output is one JSON object.
// README.md describes the workloads and every metric.
//
//	go run . -workload mem-paper -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"hetsort"
	"hetsort/internal/diskio"
)

const (
	// buildDir, relative to the directory the benchmark runs from, holds
	// everything it writes: staged inputs and node disks (removed at
	// exit) and the traced run's spans.
	buildDir = ".bench_build"
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// minSorts makes sort_s_tail defined even for a short run.
	minSorts = tailBeyond + 1
	// minTracedPairs is the fewest untraced+traced sort pairs a traced
	// run makes.
	minTracedPairs = 3
	// pollEvery is the traced run's progress poll interval.
	pollEvery = time.Millisecond
	// steps is the number of Algorithm-1 steps.
	steps = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	name, unit string
	value      float64
}

// outcome is what one run prints.
type outcome struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "mem-paper", "workload: mem-paper, dir-presorted or wide-hostile")
	seed := fl.Int64("seed", 1, "seed of the generated input")
	seconds := fl.Float64("seconds", 10, "how long to keep sorting after set-up")
	traced := fl.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, dir: filepath.Join(buildDir, "work", w.name)}
	defer os.RemoveAll(b.dir)

	var o outcome
	if *traced == 1 {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		o, err = tracedRun(b, *seconds, path, stderr)
	} else {
		o, err = endToEnd(b, *seconds, stderr)
	}
	if err == nil {
		err = printOutcome(stdout, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d sorts failed\n", o.failed, o.attempted)
		return 1
	}
	return 0
}

// sizeNotes relates the input to the sort's memory M.
func sizeNotes(b *bench) []string {
	s := b.shapes()
	return []string{
		fmt.Sprintf("workload %s, seed %d: %d keys (%.1f MiB), p=%d, M=%d keys",
			b.w.name, b.seed, len(b.keys), float64(4*len(b.keys))/mib, s.p, s.memory),
		fmt.Sprintf("n/M = %.2f, largest portion/M = %.2f",
			float64(len(b.keys))/float64(s.memory), float64(len(s.portion))/float64(s.memory)),
	}
}

// failure records a failed sort.
func (o *outcome) failure(stderr io.Writer, err error) {
	o.failed++
	fmt.Fprintf(stderr, "perfbench: sort %d failed: %v\n", o.attempted, err)
}

// endToEnd sets up setupReps times, then sorts until seconds have
// passed (and at least minSorts times) and reports the end-to-end
// metrics.
func endToEnd(b *bench, seconds float64, stderr io.Writer) (outcome, error) {
	speed := newSpeedometer(calibrate)
	setups := make([]float64, setupReps)
	for i := range setups {
		t := time.Now()
		if err := b.setup(); err != nil {
			return outcome{}, err
		}
		setups[i] = speed.scale(time.Since(t).Seconds())
	}
	var o outcome
	var walls, raw, cpus, allocs, rss []float64
	for start := time.Now(); len(walls) < minSorts || time.Since(start).Seconds() < seconds; {
		r := b.sortOnce(0)
		o.attempted++
		if r.err != nil {
			o.failure(stderr, r.err)
		}
		raw = append(raw, r.wall)
		walls = append(walls, speed.scale(r.wall))
		cpus = append(cpus, r.cpu)
		allocs = append(allocs, r.alloc)
		rss = append(rss, r.peakRSS)
	}
	p50 := median(walls)
	tailS, pct, _ := tail(walls) // defined: there are at least minSorts samples
	o.metrics = []metric{
		{"sort_mb_s", "MiB/s", float64(4*len(b.keys)) / mib / p50},
		{"sort_s_p50", "s", p50},
		{"sort_s_tail", "s", tailS},
		{"cpu_s_per_sort", "s", median(cpus)},
		{"alloc_mb_per_sort", "MiB", median(allocs) / mib},
		{"peak_rss_mb", "MiB", median(rss)},
		{"setup_s", "s", median(setups)},
		{"vsec", "vsec", b.ref.Time},
		{"block_ios", "count", float64(b.ref.ReadBlocks + b.ref.WriteBlocks)},
		{"sublist_expansion", "ratio", b.ref.SublistExpansion},
	}
	o.notes = append(sizeNotes(b),
		fmt.Sprintf("sort_s_tail is the p%.1f of %d sorts", pct, len(walls)),
		fmt.Sprintf("times are at the reference host's speed: the host ran at %.3f of it (median), unscaled sort_s_p50 %.4g s",
			1/median(speed.factors), median(raw)),
		fmt.Sprintf("failed_frac %g (%d of %d sorts)", float64(o.failed)/float64(o.attempted), o.failed, o.attempted))
	return o, nil
}

// tracedRun sets up once, probes every layer directly, then alternates
// untraced and traced sorts until seconds have passed and reports the
// per-layer metrics.  The spans of the traced sorts go to spansPath.
func tracedRun(b *bench, seconds float64, spansPath string, stderr io.Writer) (outcome, error) {
	if err := b.setup(); err != nil {
		return outcome{}, err
	}
	probed, err := b.probeLayers()
	if err != nil {
		return outcome{}, err
	}
	p := len(b.w.cfg.Perf)
	var o outcome
	var plain, traced []sortResult
	var spans []span
	hits0, misses0 := diskio.PoolStats()
	for start := time.Now(); len(traced) < minTracedPairs || time.Since(start).Seconds() < seconds; {
		for _, poll := range []time.Duration{0, pollEvery} {
			r := b.sortOnce(poll)
			o.attempted++
			switch {
			case r.err != nil:
				o.failure(stderr, r.err)
			case poll == 0:
				plain = append(plain, r)
			default:
				spans = append(spans, sortSpans(len(traced), r, p)...)
				traced = append(traced, r)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return o, errors.New("every sort failed")
	}
	hits1, misses1 := diskio.PoolStats()

	m := probed
	stepHost, skew, self := stepTimes(spans, len(traced))
	rep := traced[len(traced)-1].rep
	for s := 0; s < steps; s++ {
		pre := fmt.Sprintf("extsort.step%d.", s+1)
		m[pre+"host_s"] = stepHost[s]
		m[pre+"vsec"] = rep.StepTimes[s]
		var ios int64
		for _, node := range rep.StepIO[s] {
			ios += node.Total()
		}
		m[pre+"block_ios"] = float64(ios)
	}
	m["extsort.host_skew_s"] = skew
	m["hetsort.self_s"] = self

	all := append(append([]sortResult(nil), plain...), traced...)
	perSort := func(f func(*hetsort.Report) float64) float64 {
		xs := make([]float64, len(all))
		for i, r := range all {
			xs[i] = f(r.rep)
		}
		return median(xs)
	}
	m["diskio.pool_hit_frac"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	m["diskio.prefetch_hit_frac"] = perSort(func(r *hetsort.Report) float64 {
		return ratio(nodeSum(r, "disk.prefetch.hits"), nodeSum(r, "disk.prefetch.blocks"))
	})
	m["diskio.prefetch_stalls"] = perSort(func(r *hetsort.Report) float64 { return nodeSum(r, "disk.prefetch.stalls") })
	m["diskio.writebehind_blocks"] = perSort(func(r *hetsort.Report) float64 { return nodeSum(r, "disk.writebehind.blocks") })
	m["polyphase.merge_comparisons"] = perSort(func(r *hetsort.Report) float64 { return nodeSum(r, "merge.comparisons") })
	m["polyphase.merge_fastpath_frac"] = perSort(func(r *hetsort.Report) float64 {
		return ratio(nodeSum(r, "merge.fastpath.chunks"), nodeSum(r, "merge.chunks"))
	})
	m["histsort.rounds"] = float64(rep.PivotRounds)
	m["histsort.sample_keys"] = float64(rep.PivotSampleKeys)
	m["cluster.msgs"] = perSort(func(r *hetsort.Report) float64 { return nodeSum(r, "net.sent.msgs") })
	m["cluster.link_queue_hwm"] = perSort(func(r *hetsort.Report) float64 { return nodeMax(r, "net.link.queue.hwm") })

	var gcCycles, gcCPU, cpu float64
	plainWalls := make([]float64, len(plain))
	for i, r := range plain {
		gcCycles += r.gcCycles
		gcCPU += r.gcCPU
		cpu += r.cpu
		plainWalls[i] = r.wall
	}
	tracedWalls := make([]float64, len(traced))
	for i, r := range traced {
		tracedWalls[i] = r.wall
	}
	m["runtime.gc_cycles_per_sort"] = gcCycles / float64(len(plain))
	m["runtime.gc_cpu_frac"] = ratio(gcCPU, cpu)
	m["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1
	var gaps []float64
	for _, r := range traced {
		for k := 1; k < len(r.obs); k++ {
			gaps = append(gaps, r.obs[k].T-r.obs[k-1].T)
		}
	}
	var gap float64 // seconds
	if len(gaps) > 0 {
		gap = median(gaps)
	}

	for _, name := range perLayerNames() {
		v, ok := m[name]
		if !ok {
			return o, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		o.metrics = append(o.metrics, metric{name, perLayerUnit(name), v})
	}
	o.notes = append(sizeNotes(b),
		fmt.Sprintf("%d untraced and %d traced sorts, progress polled every %v (median gap %.3g ms)",
			len(plain), len(traced), pollEvery, 1e3*gap),
		"spans written to "+spansPath)
	return o, writeSpans(spansPath, b, gap, spans)
}

// sortSpans derives traced sort i's spans: the sort itself and each
// node's steps, with self times.
func sortSpans(i int, r sortResult, nodes int) []span {
	ss := stepSpans(r.obs, nodes, steps, r.wall)
	root := span{Name: "sort", Sort: i, Node: -1, End: r.wall}
	root.Self = selfTime(root, ss)
	for k := range ss {
		ss[k].Sort = i
	}
	return append([]span{root}, ss...)
}

// stepTimes reduces the spans of n traced sorts to medians over the
// sorts: per step, the host time during which any node was in it; the
// skew, summed over steps, between the longest and shortest node's
// time in a step; and the sort's self time.
func stepTimes(spans []span, n int) (host [steps]float64, skew, self float64) {
	hostBy := make([][steps]float64, n)
	skewBy, selfBy := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var iv [steps][][2]float64
		var lo, hi [steps]float64
		for s := range lo {
			lo[s] = math.Inf(1)
		}
		for _, sp := range spans {
			if sp.Sort != i {
				continue
			}
			s := sp.Step
			if s == 0 {
				selfBy[i] = sp.Self
				continue
			}
			iv[s-1] = append(iv[s-1], [2]float64{sp.Start, sp.End})
			lo[s-1], hi[s-1] = min(lo[s-1], sp.dur()), max(hi[s-1], sp.dur())
		}
		for s := 0; s < steps; s++ {
			hostBy[i][s] = unionLength(iv[s])
			if len(iv[s]) > 0 {
				skewBy[i] += hi[s] - lo[s]
			}
		}
	}
	for s := 0; s < steps; s++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = hostBy[i][s]
		}
		host[s] = median(xs)
	}
	return host, median(skewBy), median(selfBy)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nodeSum(r *hetsort.Report, name string) float64 {
	var v float64
	for _, nm := range r.NodeMetrics {
		v += nm[name]
	}
	return v
}

func nodeMax(r *hetsort.Report, name string) float64 {
	var v float64
	for _, nm := range r.NodeMetrics {
		v = max(v, nm[name])
	}
	return v
}

// perLayerNames lists the traced run's metrics in print order.
func perLayerNames() []string {
	var names []string
	for _, kind := range []string{"host_s", "vsec", "block_ios"} {
		for s := 1; s <= steps; s++ {
			names = append(names, fmt.Sprintf("extsort.step%d.%s", s, kind))
		}
	}
	return append(names,
		"extsort.host_skew_s",
		"diskio.write_mb_s", "diskio.read_mb_s", "diskio.pool_hit_frac",
		"diskio.prefetch_hit_frac", "diskio.prefetch_stalls", "diskio.writebehind_blocks",
		"polyphase.sort_ns_per_key", "polyphase.runs", "polyphase.phases",
		"polyphase.merge_ns_per_key", "polyphase.merge_comparisons", "polyphase.merge_fastpath_frac",
		"histsort.rounds", "histsort.sample_keys",
		"cluster.exchange_mb_s", "cluster.msgs", "cluster.link_queue_hwm",
		"checkpoint.hash_mb_s", "checkpoint.save_s",
		"hetsort.self_s",
		"runtime.gc_cycles_per_sort", "runtime.gc_cpu_frac",
		"trace.overhead_frac",
	)
}

// perLayerUnit derives a metric's unit from its name's suffix.
func perLayerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_mb_s", "MiB/s"}, {"_ns_per_key", "ns/key"}, {"_frac", "ratio"},
		{"_s", "s"}, {".vsec", "vsec"}, {"_per_sort", "count"},
	} {
		if len(name) > len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}

func writeSpans(path string, b *bench, gap float64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		PollS    float64 `json:"poll_s"`
		GapS     float64 `json:"median_poll_gap_s"`
		Spans    []span  `json:"spans"`
	}{b.w.name, b.seed, pollEvery.Seconds(), gap, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// printOutcome prints the notes and every metric by name with its unit,
// then the result as one JSON object on the last line.
func printOutcome(w io.Writer, o outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]value{}}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
