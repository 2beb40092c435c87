package quantile

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hetsort/internal/record"
)

// rankInterval returns the 1-based rank interval a value occupies in
// sorted order: [count(< v)+1, count(<= v)].  With duplicates a single
// value legitimately answers every quantile in that interval.
func rankInterval(sorted []record.Key, v record.Key) (lo, hi float64) {
	l := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	h := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return float64(l + 1), float64(h)
}

func checkAccuracy(t *testing.T, s *Summary, keys []record.Key, eps float64) {
	t.Helper()
	sorted := append([]record.Key(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v, err := s.Query(phi)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := rankInterval(sorted, v)
		target := phi * n
		allowed := 2*eps*n + 1
		var diff float64
		switch {
		case target < lo:
			diff = lo - target
		case target > hi:
			diff = target - hi
		}
		if diff > allowed {
			t.Fatalf("phi=%v: rank interval [%v,%v] vs target %v (allowed %v)",
				phi, lo, hi, target, allowed)
		}
	}
}

func TestNewValidation(t *testing.T) {
	// NaN must be rejected too: every comparison against NaN is
	// false, so the check is written as !(eps > 0 && eps < 1).
	for _, eps := range []float64{0, 1, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := New(eps); err == nil {
			t.Errorf("eps=%v accepted", eps)
		}
	}
	if _, err := New(0.01); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyUniform(t *testing.T) {
	const eps = 0.01
	s, _ := New(eps)
	keys := record.Uniform.Generate(50000, 1, 1)
	s.InsertAll(keys)
	if s.Count() != 50000 {
		t.Fatalf("Count=%d", s.Count())
	}
	checkAccuracy(t, s, keys, eps)
}

func TestAccuracySortedAndReverse(t *testing.T) {
	const eps = 0.02
	for _, d := range []record.Distribution{record.Sorted, record.Reverse} {
		s, _ := New(eps)
		keys := d.Generate(20000, 2, 1)
		s.InsertAll(keys)
		checkAccuracy(t, s, keys, eps)
	}
}

func TestAccuracyDuplicateHeavy(t *testing.T) {
	const eps = 0.02
	s, _ := New(eps)
	keys := record.Zipf.Generate(30000, 3, 1)
	s.InsertAll(keys)
	checkAccuracy(t, s, keys, eps)
}

func TestSpaceIsSublinear(t *testing.T) {
	const eps = 0.01
	s, _ := New(eps)
	keys := record.Uniform.Generate(200000, 5, 1)
	s.InsertAll(keys)
	if tc := s.TupleCount(); tc > 20000 {
		t.Fatalf("sketch holds %d tuples for 200k keys — no compression?", tc)
	}
}

func TestEmptyQuery(t *testing.T) {
	s, _ := New(0.1)
	if _, err := s.Query(0.5); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestSingleKey(t *testing.T) {
	s, _ := New(0.1)
	s.Insert(42)
	for _, phi := range []float64{-1, 0, 0.5, 1, 2} {
		v, err := s.Query(phi)
		if err != nil || v != 42 {
			t.Fatalf("phi=%v: %v, %v", phi, v, err)
		}
	}
}

func TestMergeAccuracy(t *testing.T) {
	const eps = 0.01
	a, _ := New(eps)
	b, _ := New(eps)
	ka := record.Uniform.Generate(30000, 7, 1)
	kb := record.Gaussian.Generate(30000, 8, 1)
	a.InsertAll(ka)
	b.InsertAll(kb)
	a.Merge(b)
	if a.Count() != 60000 {
		t.Fatalf("merged count %d", a.Count())
	}
	all := append(append([]record.Key(nil), ka...), kb...)
	// Merged error is bounded by the sum of the epsilons.
	checkAccuracy(t, a, all, 2*eps)
}

func TestMergeEmpty(t *testing.T) {
	a, _ := New(0.05)
	b, _ := New(0.05)
	a.Insert(1)
	a.Merge(b) // no-op
	if a.Count() != 1 {
		t.Fatal("merge with empty changed count")
	}
	b.Merge(a)
	if v, err := b.Query(0.5); err != nil || v != 1 {
		t.Fatalf("merge into empty: %v %v", v, err)
	}
}

func TestExportRoundTrip(t *testing.T) {
	const eps = 0.02
	s, _ := New(eps)
	keys := record.Uniform.Generate(20000, 9, 1)
	s.InsertAll(keys)
	vals, weights := s.Export()
	var total int64
	for _, w := range weights {
		total += w
	}
	if total != s.Count() {
		t.Fatalf("export weights sum %d != count %d", total, s.Count())
	}
	r, err := FromExport(eps, vals, weights)
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped summary loses the delta terms, so allow a
	// slightly wider band.
	checkAccuracy(t, r, keys, 2*eps)
}

func TestFromExportValidation(t *testing.T) {
	if _, err := FromExport(0.1, []record.Key{1}, []int64{1, 2}); err == nil {
		t.Fatal("ragged export accepted")
	}
	if _, err := FromExport(0.1, []record.Key{2, 1}, []int64{1, 1}); err == nil {
		t.Fatal("unsorted export accepted")
	}
	if _, err := FromExport(0.1, []record.Key{1}, []int64{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := FromExport(2, []record.Key{1}, []int64{1}); err == nil {
		t.Fatal("bad eps accepted")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := New(0.02)
		keys := record.Uniform.Generate(5000, seed, 1)
		s.InsertAll(keys)
		prev := record.Key(0)
		for _, phi := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			v, err := s.Query(phi)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCountWithBufferedInserts(t *testing.T) {
	s, _ := New(0.25) // large eps -> big batch, stays buffered
	s.Insert(1)
	s.Insert(2)
	if s.Count() != 2 {
		t.Fatalf("Count=%d with buffered inserts", s.Count())
	}
}
