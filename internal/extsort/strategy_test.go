package extsort

import (
	"testing"

	"hetsort/internal/perf"
	"hetsort/internal/record"
)

func TestStrategyStrings(t *testing.T) {
	if RegularSampling.String() != "regular-sampling" ||
		Overpartitioning.String() != "overpartitioning" ||
		RandomPivots.String() != "random-pivots" {
		t.Fatal("strategy strings")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy string")
	}
}

func TestKeysFromCountsOverflow(t *testing.T) {
	ok, err := keysFromCounts([]int64{0, 1, 1 << 31, 1<<32 - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 4 || ok[2] != record.Key(1<<31) || ok[3] != record.Key(1<<32-1) {
		t.Fatalf("round trip: %v", ok)
	}
	for _, c := range []int64{1 << 32, 1 << 33, -1} {
		if _, err := keysFromCounts([]int64{1, c}); err == nil {
			t.Errorf("count %d silently clamped", c)
		}
	}
}

func TestAllStrategiesSortCorrectly(t *testing.T) {
	for _, strat := range []Strategy{RegularSampling, Overpartitioning, RandomPivots} {
		for _, v := range []perf.Vector{perf.Homogeneous(4), {1, 1, 4, 4}} {
			t.Run(strat.String()+"/"+v.String(), func(t *testing.T) {
				c := newCluster(t, v)
				cfg := testConfig(v)
				cfg.Strategy = strat
				cfg.Seed = 7
				runSort(t, c, v, cfg, record.Uniform, v.NearestValidSize(20000), 3)
			})
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Strategy = Strategy(42)
	if _, err := DistributeInput(c, v, record.Uniform, 4096, 1, cfg.BlockKeys, "input"); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestRegularBeatsRandomPivotsOnBalance(t *testing.T) {
	// The point of sampling "in a regular way": random pivots give
	// visibly worse sublist expansion on the same input.
	v := perf.Homogeneous(4)
	n := int64(40000)
	run := func(s Strategy) float64 {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.Strategy = s
		cfg.Seed = 99
		res := runSort(t, c, v, cfg, record.Uniform, n, 13)
		return res.SublistExpansion(v)
	}
	reg := run(RegularSampling)
	rnd := run(RandomPivots)
	if reg > 1.15 {
		t.Fatalf("regular sampling expansion %v should be near 1", reg)
	}
	if rnd <= reg {
		t.Logf("note: random pivots happened to balance well this seed (%v vs %v)", rnd, reg)
	}
}

func TestOverpartitioningBalancesHeterogeneous(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Strategy = Overpartitioning
	cfg.OverFactor = 8
	cfg.Seed = 3
	res := runSort(t, c, v, cfg, record.Uniform, v.NearestValidSize(40000), 5)
	// Overpartitioning with a large k should keep the weighted
	// expansion within the Li-Sevcik ~1.3 band.
	if exp := res.SublistExpansion(v); exp > 1.6 {
		t.Fatalf("overpartitioning expansion %v too high", exp)
	}
}

func TestOverpartitioningStepTimesStillAccounted(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Strategy = Overpartitioning
	res := runSort(t, c, v, cfg, record.Uniform, 16000, 11)
	// The extra sampling seeks and counting scan make step 2 pricier
	// than under regular sampling (at tiny test sizes the seek costs
	// even rival the sort), but it must not dominate the run.
	if res.StepTimes[1] <= 0 {
		t.Fatal("step 2 time missing")
	}
	if res.StepTimes[1] > res.Time/2 {
		t.Fatalf("pivot selection (%v) dominates the whole run (%v)",
			res.StepTimes[1], res.Time)
	}
}

func TestQuantileSketchStrategy(t *testing.T) {
	for _, v := range []perf.Vector{perf.Homogeneous(4), {1, 1, 4, 4}} {
		t.Run(v.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = QuantileSketch
			cfg.QuantileEps = 0.005
			res := runSort(t, c, v, cfg, record.Uniform, v.NearestValidSize(40000), 17)
			// Sketch pivots are not grid-limited: heterogeneous balance
			// should beat the regular-sampling quantization band.
			if exp := res.SublistExpansion(v); exp > 1.12 {
				t.Fatalf("quantile-sketch expansion %v too high", exp)
			}
		})
	}
}

func TestQuantileSketchExtraPassAccounted(t *testing.T) {
	// The sketch pass reads the sorted file once more: step 2 reads
	// ~l/B blocks instead of a handful of sampled keys.
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Strategy = QuantileSketch
	const n = 32768
	res := runSort(t, c, v, cfg, record.Uniform, n, 19)
	blocks := int64(n/2) / int64(cfg.BlockKeys)
	for i := 0; i < 2; i++ {
		got := res.StepIO[1][i].Reads
		if got < blocks || got > blocks+4 {
			t.Fatalf("node %d step-2 reads %d want ~%d (full sketch pass)", i, got, blocks)
		}
	}
}

func TestQuantileSketchAllDistributions(t *testing.T) {
	v := perf.Vector{1, 2}
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = QuantileSketch
			runSort(t, c, v, cfg, d, v.NearestValidSize(12000), 23)
		})
	}
}

func TestRegularBeatsOverpartitioningOnBalance(t *testing.T) {
	// The paper's section 3.3 argument: Li & Sevcik's sublist
	// expansion (~1.3) is much worse than regular sampling's.
	v := perf.Homogeneous(8)
	n := int64(64000)
	run := func(s Strategy) float64 {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.Strategy = s
		cfg.OverFactor = 2
		cfg.Seed = 3
		res := runSort(t, c, v, cfg, record.Uniform, n, 13)
		return res.SublistExpansion(v)
	}
	reg := run(RegularSampling)
	over := run(Overpartitioning)
	if reg > 1.1 {
		t.Fatalf("regular sampling expansion %v should be near 1", reg)
	}
	if over <= reg {
		t.Fatalf("overpartitioning expansion %v not worse than regular sampling %v", over, reg)
	}
}
