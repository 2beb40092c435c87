// Package polyphase implements the sequential external sorts the paper
// uses: polyphase merge sort (Knuth, The Art of Computer Programming
// vol. 3, §5.4.2) for step 1 of Algorithm 1, and a balanced k-way
// external merge used for the final merge of already-sorted partition
// files (step 5) and as a baseline.
//
// Polyphase merging "uses 2m files to get a 2m-1 way merge without a
// separate redistribution of runs after every pass", as the paper puts
// it: runs are distributed over T-1 tapes following the generalized
// Fibonacci ("perfect") distribution, padded with dummy runs, and each
// merge phase runs until one tape empties and becomes the next output.
package polyphase

import (
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// selectionItem is an entry in the replacement-selection heap: keys
// tagged with the run generation they belong to, ordered by (run, key).
type selectionItem struct {
	key record.Key
	run int64
}

// maxSelectionRun bounds the run generations the packed heap can hold:
// the run number occupies the high 32 bits of a packed entry.  It is a
// variable so tests can reach the bound without 2^32 runs of input.
var maxSelectionRun int64 = 1<<32 - 1

// pack encodes an item as run<<32 | key, so the (run, key) order is
// one unsigned integer compare.  run must be in [0, maxSelectionRun].
func (it selectionItem) pack() uint64 { return uint64(it.run)<<32 | uint64(it.key) }

func unpack(v uint64) selectionItem {
	return selectionItem{key: record.Key(v), run: int64(v >> 32)}
}

// selectionHeap is a min-heap over packed (run, key) entries for
// replacement selection: keys of the current run sort before keys
// demoted to the next run.  Each push and sift charges the meter once,
// with the comparisons of the classic swap-based heap (see siftDown).
type selectionHeap struct {
	items []uint64
	meter vtime.Meter
}

func newSelectionHeap(capacity int, meter vtime.Meter) *selectionHeap {
	if meter == nil {
		meter = vtime.Nop{}
	}
	return &selectionHeap{items: make([]uint64, 0, capacity), meter: meter}
}

func (h *selectionHeap) len() int { return len(h.items) }

func (h *selectionHeap) push(it selectionItem) {
	x := it.pack()
	h.items = append(h.items, x)
	items := h.items
	i := len(items) - 1
	var ops int64
	for i > 0 {
		parent := (i - 1) / 2
		ops++
		if x >= items[parent] {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = x
	h.meter.ChargeCompute(ops + 1)
}

func (h *selectionHeap) peek() selectionItem { return unpack(h.items[0]) }

func (h *selectionHeap) pop() selectionItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return unpack(top)
}

func (h *selectionHeap) replaceTop(it selectionItem) {
	h.items[0] = it.pack()
	h.siftDown(0)
}

// siftDown moves a hole down from i instead of swapping at each level.
// It takes the same path as the swap-based sift (ties keep the parent,
// then prefer the left child) and charges the same ops: 2 per level
// visited, including the level where it stops, plus 1.
func (h *selectionHeap) siftDown(i int) {
	items := h.items
	n := len(items)
	if n == 0 { // the last pop still visits one (empty) level
		h.meter.ChargeCompute(2 + 1)
		return
	}
	x := items[i]
	var ops int64
	for {
		ops += 2
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r] < items[c] {
			c = r
		}
		if items[c] >= x {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = x
	h.meter.ChargeCompute(ops + 1)
}
