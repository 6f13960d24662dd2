package storage

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path with the same crash discipline
// as WriteCheckpointFile: the bytes land in a temporary file in the
// same directory, are fsynced (unless sync is false), renamed into
// place, and the directory is fsynced so the rename itself is durable.
// A crash at any point leaves either the old file or the new one,
// never a torn mix; at worst a stray <base>.tmp-* file survives for
// the caller's recovery path to inspect.
func WriteFileAtomic(path string, data []byte, sync bool) error {
	return writeAtomic(path, sync, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic over whatever write streams into the
// temporary file, so a large image is never buffered whole.
func writeAtomic(path string, sync bool, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if sync {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
	return nil
}
