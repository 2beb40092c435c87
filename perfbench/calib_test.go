package main

import (
	"math"
	"testing"
)

func TestSpeedometerScalesByBracketingCalibrations(t *testing.T) {
	cals := []float64{calRef, 3 * calRef, calRef}
	s := newSpeedometer(func() float64 {
		c := cals[0]
		cals = cals[1:]
		return c
	})
	// Calibrations calRef and 3·calRef bracket the first measurement:
	// the host ran at half speed, so 4 s stands for 2 s.
	if got := s.scale(4); math.Abs(got-2) > 1e-12 {
		t.Errorf("first measurement scaled to %v, want 2", got)
	}
	// The second one reuses the 3·calRef calibration as its start.
	if got := s.scale(4); math.Abs(got-2) > 1e-12 {
		t.Errorf("second measurement scaled to %v, want 2", got)
	}
	if len(s.factors) != 2 || s.factors[0] != 0.5 {
		t.Errorf("factors = %v, want [0.5 0.5]", s.factors)
	}
}
