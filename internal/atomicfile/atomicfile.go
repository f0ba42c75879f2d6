// Package atomicfile replaces whole files crash-safely. Every on-disk format
// of the repository (.osnt trajectories, .osnb snapshots, .osnd delta
// segments and the header of a new .osnc response cache) is written through
// Write, so a crash at any moment leaves either the complete old file or the
// complete new one under its name, and a returned Write is durable as long
// as its directory's own name is: MkdirAll creates directories that way.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// file is the part of *os.File that write uses.
type file interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// fileSystem holds the calls write makes on the file system; tests swap in
// a recorder to pin their order.
type fileSystem struct {
	createTemp func(dir, pattern string) (file, error)
	rename     func(oldpath, newpath string) error
	remove     func(name string) error
	syncDir    func(dir string) error
}

// Write replaces path with the bytes fill writes. In order it creates a
// temp file beside path, runs fill on it, fsyncs and closes the file,
// renames it over path, and fsyncs the directory. The directory fsync makes
// the rename itself durable, so a later change to the directory (such as
// unlinking files the new one supersedes) cannot reach the disk before it.
// On any failure before the rename, the temp file is removed, path keeps
// its previous contents, and the error is returned; fill's own errors come
// back unwrapped. A failed directory fsync comes after the rename: path
// then holds the new contents, though its name may not be durable.
func Write(path string, fill func(io.Writer) error) error {
	return write(fileSystem{
		createTemp: func(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) },
		rename:     os.Rename,
		remove:     os.Remove,
		syncDir:    syncDir,
	}, path, fill)
}

func write(fsys fileSystem, path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.createTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := fillAndClose(f, fill); err != nil {
		_ = fsys.remove(f.Name()) // best effort: the write's error is the one to report
		return err
	}
	if err := fsys.rename(f.Name(), path); err != nil {
		_ = fsys.remove(f.Name()) // best effort, as above
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := fsys.syncDir(dir); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	return nil
}

// fillAndClose runs fill on f, then fsyncs and closes it. f is closed on
// every path.
func fillAndClose(f file, fill func(io.Writer) error) error {
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	return nil
}

// MkdirAll creates dir and any missing parents with mode 0755, like
// os.MkdirAll, and fsyncs the parent of each directory it creates, so the
// new names are durable when it returns.
func MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	if parent := filepath.Dir(dir); parent != dir {
		if err := MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		// A concurrent caller may have just made it; only a directory will do.
		if fi, serr := os.Stat(dir); serr != nil || !fi.IsDir() {
			return err
		}
	}
	return syncDir(filepath.Dir(dir))
}

// syncDir fsyncs the directory dir, making the names in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
