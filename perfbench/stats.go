package main

import (
	"math"
	"slices"
	"strconv"
)

// tailBeyond is how many samples must rank above a reported tail
// percentile for the percentile to carry information.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count), or NaN for no samples.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile of xs that has at least
// tailBeyond samples ranked above it: the (tailBeyond+1)-th largest
// sample, which is the 100·(n−tailBeyond)/n-th percentile of n samples.
// ok is false when n ≤ tailBeyond, where no percentile qualifies.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

// span is one timed interval of a traced sort, in host seconds since
// the facade call started.
type span struct {
	Name   string  `json:"name"`
	Sort   int     `json:"sort"`
	Node   int     `json:"node"` // -1 for a span not tied to one node
	Step   int     `json:"step,omitempty"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
	// Short marks a step that began and ended between two polls, so
	// only its position, not its length, was observed.
	Short bool `json:"short,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// selfTime is parent's duration minus the part of it covered by at
// least one child; time covered by several overlapping children counts
// once, and child time outside parent is ignored.
func selfTime(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	return parent.dur() - unionLength(iv)
}

// unionLength is the total length covered by the intervals iv, which
// it sorts in place.
func unionLength(iv [][2]float64) float64 {
	slices.SortFunc(iv, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total float64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// observation is one poll of a sort's progress: host seconds since the
// facade call started and each node's current Algorithm-1 step (1..5,
// or 0 before, between and after the steps).
type observation struct {
	T     float64
	Steps []int
}

// stepSpans turns a sequence of polls into one span per node and step,
// named "extsort.step<N>" with parent "sort".  A change first seen at a
// poll happened after the previous poll, so its time is taken as the
// midpoint of the two: every boundary is off by at most half the poll
// interval.  Steps run in the order 1..steps, so a step that began and
// ended between two polls shows as a gap in that order; it gets a
// zero-length Short span at the boundary where the gap was seen.
// Steps never seen at all by the last poll are placed, Short, at the
// node's last boundary.  end closes a step still open at the last poll.
func stepSpans(obs []observation, nodes, steps int, end float64) []span {
	var out []span
	emit := func(node, step int, lo, hi float64, short bool) {
		out = append(out, span{Name: stepName(step), Node: node, Step: step, Parent: "sort",
			Start: lo, End: hi, Self: hi - lo, Short: short})
	}
	for node := 0; node < nodes; node++ {
		cur, next := 0, 1 // open step (0 = none) and the next one expected
		var curStart, last, prevT float64
		for _, o := range obs {
			s := o.Steps[node]
			b := (prevT + o.T) / 2
			prevT = o.T
			if s == cur || (s != 0 && s < next) {
				continue
			}
			if cur != 0 {
				emit(node, cur, curStart, b, false)
				cur, last = 0, b
			}
			if s != 0 {
				for q := next; q < s; q++ {
					emit(node, q, b, b, true)
				}
				cur, curStart, next = s, b, s+1
			}
		}
		if cur != 0 {
			emit(node, cur, curStart, end, false)
			last = end
		}
		for q := next; q <= steps; q++ {
			emit(node, q, last, last, true)
		}
	}
	return out
}

func stepName(step int) string { return "extsort.step" + strconv.Itoa(step) }
