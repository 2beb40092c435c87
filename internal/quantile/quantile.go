// Package quantile implements an ε-approximate streaming quantile
// summary (Greenwald & Khanna, SIGMOD 2001).  The paper cites its own
// companion work [29] showing that "the notion of quantiles can be used
// to partition the inputs in chunks of almost equal sizes and lead to
// an algorithm that is less memory consuming than the original PSRS":
// instead of sorting locally before sampling, each node streams its
// portion through a small summary and the pivot quantiles are answered
// from the merged summaries.
//
// A summary over n inserted keys answers any rank query within ε·n of
// the true rank while storing O((1/ε)·log(ε·n)) tuples.
package quantile

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hetsort/internal/record"
)

// tuple is one GK entry: value v covers g ranks ending at rmin(v), with
// uncertainty delta.
type tuple struct {
	v     record.Key
	g     int64
	delta int64
}

// Summary is an ε-approximate quantile sketch.  Not safe for concurrent
// use.
type Summary struct {
	eps    float64
	tuples []tuple
	n      int64
	// buffer batches inserts so compression amortises.
	buffer []record.Key
}

// New returns an empty summary with error bound eps in (0, 1).  The
// range check is written in negated form so NaN — for which both
// eps <= 0 and eps >= 1 are false — is rejected rather than producing a
// summary that never compresses.
func New(eps float64) (*Summary, error) {
	if !(eps > 0 && eps < 1) {
		return nil, fmt.Errorf("quantile: eps=%v out of (0,1)", eps)
	}
	return &Summary{eps: eps}, nil
}

// Epsilon returns the summary's error bound.
func (s *Summary) Epsilon() float64 { return s.eps }

// Count returns the number of keys inserted.
func (s *Summary) Count() int64 { return s.n + int64(len(s.buffer)) }

// Insert adds one key to the stream.
func (s *Summary) Insert(k record.Key) {
	s.buffer = append(s.buffer, k)
	if len(s.buffer) >= s.batchSize() {
		s.flush()
	}
}

// InsertAll adds all keys.
func (s *Summary) InsertAll(keys []record.Key) {
	for _, k := range keys {
		s.Insert(k)
	}
}

func (s *Summary) batchSize() int {
	b := int(1 / (2 * s.eps))
	if b < 16 {
		b = 16
	}
	return b
}

// flush merges the buffered keys into the tuple list and compresses.
func (s *Summary) flush() {
	if len(s.buffer) == 0 {
		return
	}
	slices.Sort(s.buffer)
	merged := make([]tuple, 0, len(s.tuples)+len(s.buffer))
	ti := 0
	for _, v := range s.buffer {
		for ti < len(s.tuples) && s.tuples[ti].v <= v {
			merged = append(merged, s.tuples[ti])
			ti++
		}
		var delta int64
		if s.n > 0 && len(merged) > 0 && ti < len(s.tuples) {
			// Interior insertion inherits the local uncertainty.
			delta = int64(2*s.eps*float64(s.n+int64(len(s.buffer)))) - 1
			if delta < 0 {
				delta = 0
			}
		}
		merged = append(merged, tuple{v: v, g: 1, delta: delta})
	}
	merged = append(merged, s.tuples[ti:]...)
	s.tuples = merged
	s.n += int64(len(s.buffer))
	s.buffer = s.buffer[:0]
	s.compress()
}

// compress removes tuples whose combined span stays within the error
// bound 2*eps*n.
func (s *Summary) compress() {
	if len(s.tuples) < 3 {
		return
	}
	limit := int64(2 * s.eps * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		// Try to merge t into its successor by accumulating g; GK
		// merges into the next tuple, we merge into the previous for
		// a simpler scan with the same bound.
		if len(out) > 1 && last.g+t.g+t.delta <= limit {
			// Absorb the previous tuple into t.
			t.g += last.g
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Query returns a key whose rank is within eps*Count of phi*Count, for
// phi in [0, 1].  It errors on an empty summary.
func (s *Summary) Query(phi float64) (record.Key, error) {
	s.flush()
	if s.n == 0 {
		return 0, errors.New("quantile: empty summary")
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := int64(math.Ceil(phi * float64(s.n)))
	if target < 1 {
		target = 1
	}
	bound := int64(s.eps * float64(s.n))
	var rmin int64
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if target-rmin <= bound && rmax-target <= bound {
			return t.v, nil
		}
		if i == len(s.tuples)-1 {
			return t.v, nil
		}
	}
	return s.tuples[len(s.tuples)-1].v, nil
}

// TupleCount returns the current sketch size (for memory assertions).
func (s *Summary) TupleCount() int {
	s.flush()
	return len(s.tuples)
}

// Merge folds other into s.  The resulting summary answers queries over
// the union with error at most eps_s + eps_other (we keep s.eps and the
// caller should size epsilons accordingly).
func (s *Summary) Merge(other *Summary) {
	other.flush()
	s.flush()
	if other.n == 0 {
		return
	}
	merged := make([]tuple, 0, len(s.tuples)+len(other.tuples))
	i, j := 0, 0
	for i < len(s.tuples) && j < len(other.tuples) {
		if s.tuples[i].v <= other.tuples[j].v {
			merged = append(merged, s.tuples[i])
			i++
		} else {
			merged = append(merged, other.tuples[j])
			j++
		}
	}
	merged = append(merged, s.tuples[i:]...)
	merged = append(merged, other.tuples[j:]...)
	s.tuples = merged
	s.n += other.n
	s.compress()
}

// Export serialises the summary as (value, weight) pairs whose weights
// sum to Count.  Used to ship summaries between nodes as plain keys.
func (s *Summary) Export() (values []record.Key, weights []int64) {
	s.flush()
	values = make([]record.Key, len(s.tuples))
	weights = make([]int64, len(s.tuples))
	for i, t := range s.tuples {
		values[i] = t.v
		weights[i] = t.g
	}
	return values, weights
}

// FromExport rebuilds a summary from Export output.
func FromExport(eps float64, values []record.Key, weights []int64) (*Summary, error) {
	if len(values) != len(weights) {
		return nil, errors.New("quantile: ragged export")
	}
	s, err := New(eps)
	if err != nil {
		return nil, err
	}
	s.tuples = make([]tuple, len(values))
	for i := range values {
		if i > 0 && values[i] < values[i-1] {
			return nil, errors.New("quantile: export not sorted")
		}
		if weights[i] <= 0 {
			return nil, errors.New("quantile: non-positive weight")
		}
		s.tuples[i] = tuple{v: values[i], g: weights[i]}
		s.n += weights[i]
	}
	return s, nil
}
