package dse

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile writes a file all-or-nothing: write renders the full
// content into a temp file in the target's directory, which is fsynced
// and renamed over path only after every byte landed. A crash at any
// moment leaves either the previous file or the new one — never a
// truncated hybrid with a torn line in the middle, which is the one
// kind of damage the JSONL salvage path (built for torn *tails* of an
// append-only log) refuses to repair. Checkpoint rewrites and final
// sweep outputs go through here.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return fmt.Errorf("dse: writing %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it survives a crash.
// Filesystems that refuse directory fsync (some CI overlays) are
// tolerated — the rename itself was still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return nil
	}
	return nil
}
