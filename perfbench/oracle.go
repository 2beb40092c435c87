package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// oracle is what a correct sort must return: the input sorted by the
// standard library, kept as its length and SHA-256.
type oracle struct {
	n   int
	sum [sha256.Size]byte
}

func newOracle(keys []uint32) oracle {
	s := slices.Clone(keys)
	slices.Sort(s)
	return oracle{n: len(s), sum: hashKeys(s)}
}

// hashKeys is the SHA-256 of keys in the on-disk format, 4-byte little
// endian.
func hashKeys(keys []uint32) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, k)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// check returns why out is not the expected sorted output, or nil.
func (o oracle) check(out []uint32) error {
	if len(out) != o.n {
		return fmt.Errorf("output has %d keys, want %d", len(out), o.n)
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			return fmt.Errorf("output unsorted at index %d", i)
		}
	}
	if hashKeys(out) != o.sum {
		return errors.New("output SHA-256 differs from the sorted input's")
	}
	return nil
}

// decodeKeys converts a file of 4-byte little-endian keys.
func decodeKeys(b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("file of %d bytes is not whole keys", len(b))
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

func encodeKeys(keys []uint32) []byte {
	b := make([]byte, 0, 4*len(keys))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint32(b, k)
	}
	return b
}
