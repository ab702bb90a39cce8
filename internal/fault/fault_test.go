package fault

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func TestDeterministicFromSeed(t *testing.T) {
	seq := func() []bool {
		in := New(42)
		in.Set(DiskReadErr, 0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Hit(DiskReadErr)
		}
		return out
	}
	a, b := seq(), seq()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times", hits, len(a))
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Hit(DiskWriteTorn) {
		t.Fatal("nil injector fired")
	}
	if err := in.Err(DiskReadErr, "x"); err != nil {
		t.Fatalf("nil injector errored: %v", err)
	}
	if b := in.Corrupt(DiskReadCorrupt, []byte("abc")); string(b) != "abc" {
		t.Fatalf("nil injector corrupted: %q", b)
	}
}

func TestCorruptFlipsExactlyOneByteOfACopy(t *testing.T) {
	in := New(1)
	in.Set(DiskReadCorrupt, 1)
	orig := []byte("hello, checksummed world")
	got := in.Corrupt(DiskReadCorrupt, orig)
	if string(orig) != "hello, checksummed world" {
		t.Fatal("input mutated in place")
	}
	diff := 0
	for i := range orig {
		if orig[i] != got[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want 1", diff)
	}
}

func TestErrWrapsSentinel(t *testing.T) {
	in := New(1)
	in.Set(DiskWriteErr, 1)
	err := in.Err(DiskWriteErr, "write x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatal("injected error must not look like a missing file")
	}
}

func TestDisableAllAndFired(t *testing.T) {
	in := New(7)
	in.Set(DiskWriteErr, 1)
	if !in.Hit(DiskWriteErr) {
		t.Fatal("p=1 did not fire")
	}
	in.DisableAll()
	if in.Hit(DiskWriteErr) {
		t.Fatal("fired after DisableAll")
	}
	if n := in.Fired()[DiskWriteErr]; n != 1 {
		t.Fatalf("fired count = %d, want 1", n)
	}
}

// osFS mirrors rescache's production filesystem for the wrapper test.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }

func TestFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := New(3)
	in.Set(DiskWriteTorn, 1)
	f := FS{Inner: osFS{}, Inj: in}
	p := filepath.Join(dir, "torn")
	if err := f.WriteFile(p, []byte("0123456789"), 0o644); err != nil {
		t.Fatalf("torn write reported failure: %v", err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "01234" {
		t.Fatalf("torn write left %q, want truncated prefix", b)
	}
}

func TestFSReadFaults(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	os.WriteFile(p, []byte("payload"), 0o644)

	in := New(9)
	in.Set(DiskReadErr, 1)
	f := FS{Inner: osFS{}, Inj: in}
	if _, err := f.ReadFile(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v", err)
	}
	in.DisableAll()
	in.Set(DiskReadCorrupt, 1)
	b, err := f.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) == "payload" {
		t.Fatal("corruption site did not corrupt")
	}
	// A missing file stays a missing file — never masked by injection.
	in.DisableAll()
	if _, err := f.ReadFile(filepath.Join(dir, "absent")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file err = %v", err)
	}
}
