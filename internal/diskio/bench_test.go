package diskio

import (
	"io"
	"testing"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
)

func BenchmarkWriterThroughput(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	b.SetBytes(int64(len(keys)) * record.KeySize)
	fs := NewMemFS()
	var c pdm.Counter
	for i := 0; i < b.N; i++ {
		f, err := fs.Create("bench")
		if err != nil {
			b.Fatal(err)
		}
		w := NewWriter(f, 2048, Accounting{Counter: &c})
		if err := w.WriteKeys(keys); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkMemFSWriteGrowth builds a 16 MiB MemFS file from one-block
// (2048-key) writes, the pattern of every run and partition file.
func BenchmarkMemFSWriteGrowth(b *testing.B) {
	const size, blockBytes = 16 << 20, 2048 * record.KeySize
	block := make([]byte, blockBytes)
	b.SetBytes(size)
	fs := NewMemFS()
	for i := 0; i < b.N; i++ {
		f, err := fs.Create("bench")
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < size; n += blockBytes {
			if _, err := f.Write(block); err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
}

func BenchmarkReaderThroughput(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	fs := NewMemFS()
	if err := WriteFile(fs, "bench", keys, 2048, Accounting{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(keys)) * record.KeySize)
	buf := make([]record.Key, 2048)
	for i := 0; i < b.N; i++ {
		f, err := fs.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		r := NewReader(f, 2048, Accounting{})
		for {
			n, err := r.ReadKeys(buf)
			if err == io.EOF || n == 0 {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
}

func BenchmarkReadKeyAt(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	fs := NewMemFS()
	if err := WriteFile(fs, "bench", keys, 2048, Accounting{}); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadKeyAt(f, int64(i%(1<<16)), Accounting{}); err != nil {
			b.Fatal(err)
		}
	}
}
