package main

import (
	"time"

	"hetsort/internal/progress"
)

// sampler polls a progress tracker on a fixed interval from its own
// goroutine while a sort runs.  Snapshots read only atomically
// published state, so polling cannot change the sort's output or its
// virtual-time results; it costs host time, which the traced run
// reports as trace.overhead_frac.
type sampler struct {
	tr    *progress.Tracker
	every time.Duration
	t0    time.Time
	obs   []observation
	quit  chan struct{}
	done  chan struct{}
}

func (s *sampler) start(t0 time.Time) {
	s.t0 = t0
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tk := time.NewTicker(s.every)
		defer tk.Stop()
		for {
			select {
			case <-s.quit:
				return
			case now := <-tk.C:
				s.poll(now)
			}
		}
	}()
}

func (s *sampler) poll(now time.Time) {
	snap := s.tr.Snapshot()
	if snap == nil {
		return // the sort has not bound the tracker yet
	}
	steps := make([]int, len(snap.Nodes))
	for i, n := range snap.Nodes {
		steps[i] = n.Step
	}
	s.obs = append(s.obs, observation{T: now.Sub(s.t0).Seconds(), Steps: steps})
}

// stop ends polling, waits for the polling goroutine to exit, takes a
// last poll at end and returns every poll.
func (s *sampler) stop(end time.Time) []observation {
	close(s.quit)
	<-s.done
	s.poll(end)
	return s.obs
}
