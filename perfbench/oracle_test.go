package main

import (
	"slices"
	"testing"
)

func TestOracle(t *testing.T) {
	keys := []uint32{70, 0, 40, 10, 90, 30, 60, 20, 80, 50, 50}
	o := newOracle(keys)
	good := slices.Clone(keys)
	slices.Sort(good)
	if err := o.check(good); err != nil {
		t.Fatalf("sorted input rejected: %v", err)
	}

	corrupt := slices.Clone(good)
	corrupt[3]++ // 30 → 31: still sorted, one key wrong
	if !slices.IsSorted(corrupt) {
		t.Fatal("corruption broke sortedness; the case would not test the hash")
	}
	if err := o.check(corrupt); err == nil {
		t.Error("one-key corruption accepted")
	}

	swapped := slices.Clone(good)
	swapped[4], swapped[5] = swapped[5], swapped[4]
	if err := o.check(swapped); err == nil {
		t.Error("swapped pair accepted")
	}

	if err := o.check(good[1:]); err == nil {
		t.Error("missing key accepted")
	}
	if err := o.check(keys); err == nil {
		t.Error("unsorted input accepted")
	}
}

func TestKeysRoundTrip(t *testing.T) {
	keys := []uint32{0, 1, 1 << 31, ^uint32(0)}
	got, err := decodeKeys(encodeKeys(keys))
	if err != nil || !slices.Equal(got, keys) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := decodeKeys([]byte{1, 2, 3}); err == nil {
		t.Error("partial key accepted")
	}
}
