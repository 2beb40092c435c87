package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestTailNeedsMoreThanTailBeyondSamples(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatalf("tail of %d samples is defined", tailBeyond)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{11, 1, 100.0 / 11}, // the minimum is the only sample with 10 above it
		{20, 10, 50},        // small run: the median
		{40, 30, 75},        // a typical benchmark run
		{1000, 990, 99},     // large run: p99
		{10000, 9990, 99.9}, // p99.9 once there are enough samples
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, pct, ok := tail(xs)
		if !ok || v != tc.wantValue || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail = %v, p%v, %v; want %v, p%v", tc.n, v, pct, ok, tc.wantValue, tc.wantPct)
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := tailBeyond + 1; n < 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		v, _, _ := tail(xs)
		var above, atOrAbove int
		for _, x := range xs {
			if x > v {
				above++
			}
			if x >= v {
				atOrAbove++
			}
		}
		// Exactly tailBeyond samples lie beyond the value, so any
		// higher sample would have fewer than tailBeyond beyond it.
		if above != tailBeyond || atOrAbove != tailBeyond+1 {
			t.Fatalf("n=%d: %d samples above the tail and %d at or above it", n, above, atOrAbove)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 0, End: 10}
	for _, tc := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []span{{Start: 1, End: 2}, {Start: 4, End: 6}}, 7},
		{"overlapping", []span{{Start: 1, End: 4}, {Start: 3, End: 6}}, 5},
		{"nested", []span{{Start: 1, End: 6}, {Start: 2, End: 3}}, 5},
		{"out of order", []span{{Start: 3, End: 6}, {Start: 1, End: 4}, {Start: 5, End: 5.5}}, 5},
		{"beyond the parent", []span{{Start: -2, End: 1}, {Start: 9, End: 12}, {Start: 11, End: 13}}, 8},
		{"covering", []span{{Start: 0, End: 6}, {Start: 5, End: 10}}, 0},
		{"zero length", []span{{Start: 5, End: 5}}, 10},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestStepSpansFromPolls(t *testing.T) {
	// Node 0 passes through every step; step 4 begins and ends between
	// the polls at t=6 and t=7, so it is only seen as a gap.  Node 1 is
	// still in step 1 at the last poll.
	obs := []observation{
		{1, []int{1, 0}},
		{2, []int{1, 1}},
		{3, []int{0, 1}},
		{4, []int{2, 1}},
		{5, []int{0, 1}},
		{6, []int{3, 1}},
		{7, []int{5, 1}},
		{8, []int{0, 1}},
	}
	got := stepSpans(obs, 2, 5, 9)
	s := func(node, step int, lo, hi float64, short bool) span {
		return span{Name: stepName(step), Node: node, Step: step, Parent: "sort",
			Start: lo, End: hi, Self: hi - lo, Short: short}
	}
	want := []span{
		s(0, 1, 0.5, 2.5, false),
		s(0, 2, 3.5, 4.5, false),
		s(0, 3, 5.5, 6.5, false),
		s(0, 4, 6.5, 6.5, true),
		s(0, 5, 6.5, 7.5, false),
		s(1, 1, 1.5, 9, false),
		s(1, 2, 9, 9, true),
		s(1, 3, 9, 9, true),
		s(1, 4, 9, 9, true),
		s(1, 5, 9, 9, true),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans:\n got %+v\nwant %+v", got, want)
	}
}

func TestStepSpansTrailingStepBetweenPolls(t *testing.T) {
	// Step 5 starts and finishes after the last poll that saw step 4:
	// it is placed, zero-length, where step 4 was seen to end.
	obs := []observation{{1, []int{4}}, {3, []int{0}}}
	got := stepSpans(obs, 1, 5, 3)
	if len(got) != 5 {
		t.Fatalf("%d spans, want one per step: %+v", len(got), got)
	}
	last := got[4]
	if last.Step != 5 || !last.Short || last.Start != 2 || last.End != 2 {
		t.Errorf("step 5 span = %+v, want a short span at t=2", last)
	}
	if got[3].Step != 4 || got[3].Start != 0.5 || got[3].End != 2 {
		t.Errorf("step 4 span = %+v, want [0.5, 2]", got[3])
	}
}
