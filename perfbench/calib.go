package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// calRef is calibrate's median time on the reference host (a 2-vCPU
// Xeon virtual machine) when no other tenant competes for its CPUs.
const calRef = 0.074 // seconds

// calKeys is the calibration kernel's fixed input.
var calKeys = func() []uint32 {
	r := rand.New(rand.NewSource(1))
	k := make([]uint32, 1<<17)
	for i := range k {
		k[i] = r.Uint32()
	}
	return k
}()

// calibrate runs a fixed amount of standard-library sorting on every
// CPU and returns its wall time.  It shares no code with hetsort, so a
// change to the program cannot move it; only the host's speed can.
func calibrate() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint32, len(calKeys))
			for r := 0; r < 4; r++ {
				copy(buf, calKeys)
				slices.Sort(buf)
			}
		}()
	}
	wg.Wait()
	return time.Since(t).Seconds()
}

// speedometer scales host times to the reference host's speed.  On a
// shared host, other tenants steal CPU time for minutes at a time and
// stretch every wall time; a calibration run just before and just
// after a measurement slows down by about as much, so dividing by it
// cancels the stretch.  It calibrates once up front and once after
// each measurement, and scales a measurement by calRef over the mean
// of the calibrations on either side of it.
type speedometer struct {
	cal     func() float64
	last    float64
	factors []float64 // calRef / calibration, per measurement
}

func newSpeedometer(cal func() float64) *speedometer {
	return &speedometer{cal: cal, last: cal()}
}

// scale returns sec, measured since the previous call (or since the
// speedometer was made), at the reference host's speed.
func (s *speedometer) scale(sec float64) float64 {
	next := s.cal()
	f := calRef / ((s.last + next) / 2)
	s.last = next
	s.factors = append(s.factors, f)
	return sec * f
}
