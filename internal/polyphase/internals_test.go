package polyphase

import (
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// sliceSource serves a sorted key slice through MergeSource in blocks of
// blk keys, mimicking a file-backed reader.
type sliceSource struct {
	keys []record.Key
	blk  int
	buf  []record.Key
}

func (s *sliceSource) Buffered() []record.Key { return s.buf }
func (s *sliceSource) Discard(n int)          { s.buf = s.buf[n:] }
func (s *sliceSource) Fill() error {
	if len(s.buf) > 0 {
		return nil
	}
	if len(s.keys) == 0 {
		return io.EOF
	}
	n := s.blk
	if n > len(s.keys) {
		n = len(s.keys)
	}
	s.buf, s.keys = s.keys[:n], s.keys[n:]
	return nil
}

func mergeAll(t *testing.T, srcs []MergeSource, meter vtime.Meter) []record.Key {
	t.Helper()
	var out []record.Key
	if err := Merge(srcs, meter, func(chunk []record.Key) error {
		out = append(out, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLoserTreeOrdering(t *testing.T) {
	runs := [][]record.Key{
		{1, 3, 5, 0xffffffff},
		{0, 2, 2, 9},
		{},
		{7},
		{2, 4},
	}
	var srcs []MergeSource
	var want []record.Key
	for _, r := range runs {
		srcs = append(srcs, &sliceSource{keys: r, blk: 2})
		want = append(want, r...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	out := mergeAll(t, srcs, vtime.Nop{})
	if len(out) != len(want) {
		t.Fatalf("merged %d keys, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestLoserTreeSingleSourceAndEmpty(t *testing.T) {
	if out := mergeAll(t, nil, nil); len(out) != 0 {
		t.Fatalf("empty merge produced %v", out)
	}
	one := []MergeSource{&sliceSource{keys: []record.Key{4, 4, 8}, blk: 2}}
	out := mergeAll(t, one, nil)
	if len(out) != 3 || out[0] != 4 || out[2] != 8 {
		t.Fatalf("single-source merge = %v", out)
	}
}

func TestLoserTreeProperty(t *testing.T) {
	f := func(raw [][]record.Key, blk uint8) bool {
		b := int(blk%7) + 1
		var srcs []MergeSource
		var want []record.Key
		for _, r := range raw {
			r := append([]record.Key(nil), r...)
			sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
			srcs = append(srcs, &sliceSource{keys: r, blk: b})
			want = append(want, r...)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		out := mergeAll(t, srcs, nil)
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoserTreeChunkedEmit(t *testing.T) {
	// Non-overlapping sources must be emitted block-at-a-time, not
	// key-at-a-time: source 0's whole buffer is below source 1's head.
	srcs := []MergeSource{
		&sliceSource{keys: []record.Key{1, 2, 3, 4, 5, 6, 7, 8}, blk: 4},
		&sliceSource{keys: []record.Key{100, 101, 102, 103}, blk: 4},
	}
	var chunks int
	if err := Merge(srcs, nil, func(chunk []record.Key) error {
		chunks++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 2 blocks from source 0, 1 block from source 1 (plus at most one
	// extra boundary chunk): far fewer than the 12 per-key emits.
	if chunks > 4 {
		t.Fatalf("expected block-copy fast path, got %d chunks for 12 keys", chunks)
	}
}

func TestSelectionHeapRunOrdering(t *testing.T) {
	// Items of run r must all come out before any item of run r+1,
	// regardless of key values.
	h := newSelectionHeap(8, vtime.Nop{})
	h.push(selectionItem{key: 1, run: 1})
	h.push(selectionItem{key: 100, run: 0})
	h.push(selectionItem{key: 50, run: 0})
	h.push(selectionItem{key: 0, run: 1})
	want := []selectionItem{{50, 0}, {100, 0}, {0, 1}, {1, 1}}
	for i, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d = %+v want %+v", i, got, w)
		}
	}
}

func TestSelectionHeapReplaceTop(t *testing.T) {
	h := newSelectionHeap(4, nil)
	h.push(selectionItem{key: 10, run: 0})
	h.push(selectionItem{key: 20, run: 0})
	h.replaceTop(selectionItem{key: 5, run: 1}) // demoted to next run
	if got := h.pop(); got.key != 20 || got.run != 0 {
		t.Fatalf("pop = %+v", got)
	}
	if got := h.pop(); got.key != 5 || got.run != 1 {
		t.Fatalf("pop = %+v", got)
	}
}

// refSelectionHeap is a struct-based heap that swaps at every level and
// charges by the rule of DESIGN.md §12.  It is the differential oracle
// for selectionHeap: same pops, same ChargeCompute argument per call.
type refSelectionHeap struct {
	items []selectionItem
	meter vtime.Meter
}

func (h *refSelectionHeap) less(a, b selectionItem) bool {
	if a.run != b.run {
		return a.run < b.run
	}
	return a.key < b.key
}

func (h *refSelectionHeap) push(it selectionItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	var ops int64
	for i > 0 {
		parent := (i - 1) / 2
		ops++
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
	h.meter.ChargeCompute(ops + 1)
}

func (h *refSelectionHeap) pop() selectionItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *refSelectionHeap) replaceTop(it selectionItem) {
	h.items[0] = it
	h.siftDown(0)
}

func (h *refSelectionHeap) siftDown(i int) {
	n := len(h.items)
	var ops int64
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		ops += 2
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	h.meter.ChargeCompute(ops + 1)
}

// callMeter records the argument of every ChargeCompute call.
type callMeter struct{ calls []int64 }

func (m *callMeter) ChargeCompute(n int64) { m.calls = append(m.calls, n) }
func (m *callMeter) ChargeIOBlocks(int64)  {}
func (m *callMeter) ChargeSeek(int64)      {}

func (m *callMeter) total() int64 {
	var t int64
	for _, n := range m.calls {
		t += n
	}
	return t
}

// TestSelectionHeapMatchesReference drives the packed heap and the
// reference heap through identical operation sequences and requires the
// same pop sequence and the same per-call compute charges.  Each input
// is run twice: as replacement selection drives the heap (fill, then
// replaceTop with demotion, then drain), and as a seeded random mix of
// push, replaceTop and pop over a few run generations.
func TestSelectionHeapMatchesReference(t *testing.T) {
	const n, m = 4000, 64
	descending := make([]record.Key, n)
	for i := range descending {
		descending[i] = record.Key(n - i)
	}
	inputs := map[string][]record.Key{
		"uniform":    record.Uniform.Generate(n, 11, 1),
		"all-equal":  make([]record.Key, n),
		"descending": descending, // every refill is demoted
		"zipf":       record.Zipf.Generate(n, 12, 1),
	}
	for name, keys := range inputs {
		t.Run(name+"/replacement", func(t *testing.T) {
			var gm, wm callMeter
			got := newSelectionHeap(m, &gm)
			want := &refSelectionHeap{meter: &wm}
			var gotOut, wantOut []selectionItem
			for _, k := range keys[:m] {
				got.push(selectionItem{key: k})
				want.push(selectionItem{key: k})
			}
			for _, k := range keys[m:] {
				top := got.peek()
				gotOut = append(gotOut, top)
				wantOut = append(wantOut, want.items[0])
				it := selectionItem{key: k, run: top.run}
				if k < top.key {
					it.run++
				}
				got.replaceTop(it)
				want.replaceTop(it)
			}
			for got.len() > 0 {
				gotOut = append(gotOut, got.pop())
				wantOut = append(wantOut, want.pop())
			}
			compareHeapRuns(t, gotOut, wantOut, &gm, &wm)
		})
		t.Run(name+"/random-ops", func(t *testing.T) {
			var gm, wm callMeter
			got := newSelectionHeap(m, &gm)
			want := &refSelectionHeap{meter: &wm}
			var gotOut, wantOut []selectionItem
			rng := rand.New(rand.NewSource(int64(len(name))))
			for _, k := range keys {
				it := selectionItem{key: k, run: int64(rng.Intn(3))}
				switch op := rng.Intn(3); {
				case got.len() == 0 || (op == 0 && got.len() < m):
					got.push(it)
					want.push(it)
				case op == 1:
					gotOut = append(gotOut, got.peek())
					wantOut = append(wantOut, want.items[0])
					got.replaceTop(it)
					want.replaceTop(it)
				default:
					gotOut = append(gotOut, got.pop())
					wantOut = append(wantOut, want.pop())
				}
			}
			for got.len() > 0 {
				gotOut = append(gotOut, got.pop())
				wantOut = append(wantOut, want.pop())
			}
			compareHeapRuns(t, gotOut, wantOut, &gm, &wm)
		})
	}
}

func compareHeapRuns(t *testing.T, gotOut, wantOut []selectionItem, gm, wm *callMeter) {
	t.Helper()
	if len(gotOut) != len(wantOut) {
		t.Fatalf("popped %d items, reference %d", len(gotOut), len(wantOut))
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("pop %d = %+v, reference %+v", i, gotOut[i], wantOut[i])
		}
	}
	if gm.total() != wm.total() {
		t.Fatalf("charged %d compute ops, reference %d", gm.total(), wm.total())
	}
	if len(gm.calls) != len(wm.calls) {
		t.Fatalf("%d ChargeCompute calls, reference %d", len(gm.calls), len(wm.calls))
	}
	for i := range wm.calls {
		if gm.calls[i] != wm.calls[i] {
			t.Fatalf("ChargeCompute call %d charged %d, reference %d", i, gm.calls[i], wm.calls[i])
		}
	}
}

// TestReplacementSelectionRunLimit pins the run-number guard: the packed
// heap holds the run in 32 bits, so a run past the limit must be an
// error, not a silent wrap that would merge it into run 0.
func TestReplacementSelectionRunLimit(t *testing.T) {
	defer func(old int64) { maxSelectionRun = old }(maxSelectionRun)
	maxSelectionRun = 3
	keys := make([]record.Key, 1000)
	for i := range keys {
		keys[i] = record.Key(len(keys) - i) // every refill is demoted
	}
	var runs [][]record.Key
	_, _, err := formRuns(newMemInput(t, keys), "input", 16, 64, ReplacementSelection,
		accounting(), diskio.Overlap{}, &collectSink{runs: &runs})
	if err == nil || !strings.Contains(err.Error(), "beyond the heap's limit") {
		t.Fatalf("err = %v, want the run-limit error", err)
	}
	if len(runs) != 3 {
		t.Fatalf("emitted %d complete runs before the error, want 3", len(runs))
	}

	maxSelectionRun = 1<<32 - 1
	runs = nil
	n, _, err := formRuns(newMemInput(t, keys), "input", 16, 64, ReplacementSelection,
		accounting(), diskio.Overlap{}, &collectSink{runs: &runs})
	if err != nil || n != int64(len(keys)/64)+1 {
		t.Fatalf("runs=%d err=%v under the real limit", n, err)
	}
}

func TestMergeKernelChargesCompute(t *testing.T) {
	var charged int64
	m := &captureMeter{compute: &charged}
	srcs := []MergeSource{
		&sliceSource{keys: []record.Key{1, 4, 9, 12}, blk: 2},
		&sliceSource{keys: []record.Key{2, 3, 10, 11}, blk: 2},
	}
	out := mergeAll(t, srcs, m)
	if charged < int64(len(out)) {
		t.Fatalf("merge of %d keys charged only %d compute ops", len(out), charged)
	}
}

type captureMeter struct{ compute *int64 }

func (c *captureMeter) ChargeCompute(n int64) { *c.compute += n }
func (c *captureMeter) ChargeIOBlocks(int64)  {}
func (c *captureMeter) ChargeSeek(int64)      {}

func TestDistributorPlacesAllRunsWithinTargets(t *testing.T) {
	for _, tapes := range []int{2, 3, 5} {
		inputs := make([]*tape, tapes)
		for i := range inputs {
			inputs[i] = &tape{}
		}
		d := newDistributor(inputs)
		// Place 100 runs via the public-ish path (pick/placed).
		for r := 0; r < 100; r++ {
			i := d.pick()
			d.placed[i]++
		}
		d.finalize()
		var placed, total int64
		for i, tp := range inputs {
			if d.placed[i] > d.target[i] {
				t.Fatalf("tape %d overfilled: %d > %d", i, d.placed[i], d.target[i])
			}
			if tp.dummies != d.target[i]-d.placed[i] {
				t.Fatalf("tape %d dummies %d inconsistent", i, tp.dummies)
			}
			placed += d.placed[i]
			total += d.target[i]
		}
		if placed != 100 {
			t.Fatalf("placed %d runs", placed)
		}
		if total < 100 {
			t.Fatalf("targets %d below run count", total)
		}
	}
}

func TestDistributorTwoTapeFibonacci(t *testing.T) {
	// T=3 means two input tapes: the classic Fibonacci distribution.
	inputs := []*tape{{}, {}}
	d := newDistributor(inputs)
	sums := []int64{}
	for l := 0; l < 8; l++ {
		sums = append(sums, d.target[0]+d.target[1])
		d.levelUp()
	}
	want := []int64{2, 3, 5, 8, 13, 21, 34, 55}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("fibonacci totals %v want %v", sums, want)
		}
	}
}

func TestRunFormationEmitsSortedRuns(t *testing.T) {
	// Collect runs from the replacement-selection former and check
	// each is sorted and their union is the input.
	fs := newMemInput(t, record.Uniform.Generate(3000, 5, 1))
	var runs [][]record.Key
	sink := &collectSink{runs: &runs}
	n, total, err := formRuns(fs, "input", 16, 64, ReplacementSelection, accounting(), diskio.Overlap{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(runs)) || total != 3000 {
		t.Fatalf("n=%d runs=%d total=%d", n, len(runs), total)
	}
	var all []record.Key
	for _, r := range runs {
		if !record.IsSorted(r) {
			t.Fatal("run not sorted")
		}
		all = append(all, r...)
	}
	want := record.ChecksumOf(record.Uniform.Generate(3000, 5, 1))
	if !record.ChecksumOf(all).Equal(want) {
		t.Fatal("runs lost keys")
	}
}

func TestReplacementSelectionAverageRunLength(t *testing.T) {
	// Knuth: expected run length 2M on random input.
	fs := newMemInput(t, record.Uniform.Generate(50000, 9, 1))
	var runs [][]record.Key
	sink := &collectSink{runs: &runs}
	n, total, err := formRuns(fs, "input", 64, 256, ReplacementSelection, accounting(), diskio.Overlap{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(total) / float64(n)
	if avg < 1.6*256 || avg > 2.4*256 {
		t.Fatalf("average run length %v keys, want ~2M=512", avg)
	}
}

func TestLoadSortRunLengthExactlyM(t *testing.T) {
	fs := newMemInput(t, record.Uniform.Generate(1000, 3, 1))
	var runs [][]record.Key
	sink := &collectSink{runs: &runs}
	_, _, err := formRuns(fs, "input", 16, 256, LoadSort, accounting(), diskio.Overlap{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs[:len(runs)-1] {
		if len(r) != 256 {
			t.Fatalf("run %d length %d, want M=256", i, len(r))
		}
	}
	if last := runs[len(runs)-1]; len(last) != 1000%256 {
		t.Fatalf("last run %d keys", len(last))
	}
}

// Helpers.

func newMemInput(t *testing.T, keys []record.Key) diskio.FS {
	t.Helper()
	fs := diskio.NewMemFS()
	if err := diskio.WriteFile(fs, "input", keys, 64, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	return fs
}

func accounting() diskio.Accounting { return diskio.Accounting{} }

type collectSink struct {
	runs *[][]record.Key
	cur  []record.Key
}

func (c *collectSink) beginRun() error { c.cur = nil; return nil }
func (c *collectSink) emit(k record.Key) error {
	c.cur = append(c.cur, k)
	return nil
}
func (c *collectSink) endRun() error {
	*c.runs = append(*c.runs, c.cur)
	return nil
}
