package dse

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestAtomicWriteFile checks the durability contract: the target file
// either keeps its old content or carries the complete new content,
// never a torn mix, and a failed writer leaves no temp litter behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first\n" {
		t.Fatalf("content %q", got)
	}

	// Overwrite succeeds atomically.
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second, longer than before\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer than before\n" {
		t.Fatalf("content after rewrite %q", got)
	}

	// A writer that fails mid-stream must not disturb the original.
	boom := errors.New("boom")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want wrapped boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer than before\n" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "out.jsonl" {
		t.Fatalf("temp litter left behind: %v", ents)
	}
}

// TestPeekHeader checks header-only inspection of a checkpoint log,
// the primitive the coordinator's directory rescan is built on: a
// header-only log reads back its header and no results in both modes,
// and a strict read of a missing file fails.
func TestPeekHeader(t *testing.T) {
	sw, err := ParseSweep("smoke", 7)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeader("smoke", 7, points, nil)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		return WriteHeader(w, h)
	}); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{true, false} {
		lg, err := ReadLog(path, strict)
		if err != nil {
			t.Fatal(err)
		}
		if got := lg.Header; got.SpecHash != h.SpecHash || got.Seed != h.Seed || got.Spec != h.Spec {
			t.Fatalf("strict=%v: peeked %+v, want %+v", strict, got, h)
		}
		if len(lg.Results) != 0 || lg.Header.Check(h) != nil {
			t.Fatalf("strict=%v: header-only log read as %+v", strict, lg)
		}
	}
	if _, err := ReadLog(filepath.Join(t.TempDir(), "missing.jsonl"), true); err == nil {
		t.Fatal("strict read of a missing file succeeded")
	}
}
