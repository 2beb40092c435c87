package diskio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hetsort/internal/record"
)

func TestRenameBothBackends(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			// Many one-block writes, so a MemFS file has grown its
			// buffer several times before the rename.
			keys := record.Uniform.Generate(5000, 3, 1)
			if err := WriteFile(fs, "old", keys, 16, Accounting{}); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("old", "new"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("old"); err == nil {
				t.Fatal("old name still opens")
			}
			got, err := ReadFileAll(fs, "new", 16, Accounting{})
			if err != nil || len(got) != len(keys) || !record.ChecksumOf(got).Equal(record.ChecksumOf(keys)) {
				t.Fatalf("renamed content: %d keys, %v", len(got), err)
			}
		})
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			WriteFile(fs, "a", []record.Key{1}, 4, Accounting{})
			WriteFile(fs, "b", []record.Key{2, 2}, 4, Accounting{})
			if err := fs.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			got, _ := ReadFileAll(fs, "b", 4, Accounting{})
			if len(got) != 1 || got[0] != 1 {
				t.Fatalf("target not replaced: %v", got)
			}
		})
	}
}

func TestRenameMissingSource(t *testing.T) {
	fs := NewMemFS()
	if err := fs.Rename("ghost", "x"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("ghost", "x"); err == nil {
		t.Fatal("DirFS rename of missing source accepted")
	}
}

func TestRenameChargesNoIO(t *testing.T) {
	// Rename must be a metadata operation: the tests in polyphase rely
	// on it not inflating the PDM I/O counts.
	fs := NewMemFS()
	WriteFile(fs, "a", make([]record.Key, 100), 8, Accounting{})
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert on a Counter because Rename takes none — the
	// signature itself guarantees it.  Assert content integrity.
	n, err := CountKeys(fs, "b")
	if err != nil || n != 100 {
		t.Fatalf("CountKeys=%d,%v", n, err)
	}
}

func TestFaultFSRenameBudget(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), 0)
	if err := ffs.Rename("a", "b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestDirFSRenameIntoSubdir(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(d, "f", []record.Key{5}, 4, Accounting{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("f", "sub/dir/f"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileAll(d, "sub/dir/f", 4, Accounting{})
	if err != nil || len(got) != 1 {
		t.Fatalf("%v %v", got, err)
	}
}

func TestDirFSRenameRejectsEscape(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	WriteFile(d, "f", []record.Key{5}, 4, Accounting{})
	if err := d.Rename("f", "../escape"); err == nil {
		t.Fatal("escaping rename accepted")
	}
	if err := d.Rename("../escape", "f"); err == nil {
		t.Fatal("escaping source accepted")
	}
}

func TestDirFSRenameSyncsParentDirs(t *testing.T) {
	// Regression: an "atomic" manifest commit is only durable once the
	// parent directory's entry change is fsynced — os.Rename alone can
	// be lost on crash.  Rename must sync the destination's parent and,
	// for cross-directory renames, the source's parent too.
	orig := SyncDir
	defer func() { SyncDir = orig }()
	var synced []string
	SyncDir = func(dir string) error {
		synced = append(synced, dir)
		return nil
	}

	root := t.TempDir()
	d, err := NewDirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(d, "m.tmp", []record.Key{1}, 4, Accounting{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("m.tmp", "m"); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != root {
		t.Fatalf("same-dir rename synced %v, want just [%s]", synced, root)
	}

	synced = nil
	if err := d.Rename("m", "sub/m"); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 {
		t.Fatalf("cross-dir rename synced %v, want destination and source parents", synced)
	}
	wantDst := filepath.Join(root, "sub")
	if synced[0] != wantDst || synced[1] != root {
		t.Fatalf("cross-dir rename synced %v, want [%s %s]", synced, wantDst, root)
	}
}

func TestSyncDirDefaultWorks(t *testing.T) {
	// The real hook must fsync an actual directory without error.
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncing a missing directory should fail")
	}
}
