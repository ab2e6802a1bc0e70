// Package atomicio is the one place the repo writes a file atomically
// and durably: temp file in the target directory, write, fsync, rename
// over the destination, fsync the directory. Readers therefore observe
// either the previous complete file or the new complete file — never a
// torn intermediate — and a rename that was observed survives power
// loss (the directory entry is forced out with the data).
//
// The figure result cache writes its entries through here, so a crash
// at the wrong instant can never publish a rename whose data blocks
// are still in the page cache.
package atomicio

import (
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with b. The temp file lives in
// path's directory (rename must not cross filesystems) and is removed
// on any failure; the destination is never left torn.
func WriteFile(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		return cleanup(err)
	}
	// fsync before rename: the rename is the commit point, so the data
	// must be durable before the new directory entry can be.
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir forces the directory entry out. Best-effort: some filesystems
// refuse fsync on directories, and the rename itself is already atomic
// against crashes that don't lose power.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
