package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var errInjected = errors.New("injected failure")

// recorder is a fileSystem over the real one that logs every call by name
// and fails the call named fail (after performing it, for close, so no
// descriptor leaks).
type recorder struct {
	calls []string
	fail  string
}

func (r *recorder) step(name string) error {
	r.calls = append(r.calls, name)
	if name == r.fail {
		return errInjected
	}
	return nil
}

func (r *recorder) fileSystem() fileSystem {
	return fileSystem{
		createTemp: func(dir, pattern string) (file, error) {
			if err := r.step("create"); err != nil {
				return nil, err
			}
			f, err := os.CreateTemp(dir, pattern)
			if err != nil {
				return nil, err
			}
			return &recordedFile{File: f, r: r}, nil
		},
		rename: func(oldpath, newpath string) error {
			if err := r.step("rename"); err != nil {
				return err
			}
			return os.Rename(oldpath, newpath)
		},
		remove: func(name string) error {
			r.calls = append(r.calls, "remove")
			return os.Remove(name)
		},
		syncDir: func(dir string) error {
			if err := r.step("syncdir"); err != nil {
				return err
			}
			return syncDir(dir)
		},
	}
}

type recordedFile struct {
	*os.File
	r *recorder
}

func (f *recordedFile) Write(p []byte) (int, error) {
	if err := f.r.step("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *recordedFile) Sync() error {
	if err := f.r.step("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *recordedFile) Close() error {
	err := f.File.Close()
	if stepErr := f.r.step("close"); stepErr != nil {
		return stepErr
	}
	return err
}

// TestWriteCallOrder pins the protocol: the data is written, fsynced and
// closed before the rename, and the directory is fsynced after it. A
// failure at any step before the rename removes the temp file and leaves
// the previous file byte-identical; a failed directory fsync reports the
// error with the new file already in place.
func TestWriteCallOrder(t *testing.T) {
	cases := []struct {
		fail      string
		want      []string
		replaced  bool // path holds the new bytes afterwards
		wantError bool
	}{
		{"", []string{"create", "write", "sync", "close", "rename", "syncdir"}, true, false},
		{"create", []string{"create"}, false, true},
		{"write", []string{"create", "write", "close", "remove"}, false, true},
		{"sync", []string{"create", "write", "sync", "close", "remove"}, false, true},
		{"close", []string{"create", "write", "sync", "close", "remove"}, false, true},
		{"rename", []string{"create", "write", "sync", "close", "rename", "remove"}, false, true},
		{"syncdir", []string{"create", "write", "sync", "close", "rename", "syncdir"}, true, true},
	}
	oldBytes, newBytes := []byte("previous contents"), []byte("new contents")
	for _, tc := range cases {
		t.Run("fail="+tc.fail, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f.bin")
			if err := os.WriteFile(path, oldBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			r := &recorder{fail: tc.fail}
			err := write(r.fileSystem(), path, func(w io.Writer) error {
				_, err := w.Write(newBytes)
				return err
			})
			if tc.wantError != (err != nil) {
				t.Fatalf("error = %v, want error: %v", err, tc.wantError)
			}
			if err != nil && !errors.Is(err, errInjected) {
				t.Errorf("error %v does not wrap the injected failure", err)
			}
			if !reflect.DeepEqual(r.calls, tc.want) {
				t.Errorf("calls = %v, want %v", r.calls, tc.want)
			}
			want := oldBytes
			if tc.replaced {
				want = newBytes
			}
			assertOnlyFile(t, dir, path, want)
		})
	}
}

// TestWriteFillErrorKeepsPreviousFile drives the real file system: a fill
// that fails after writing part of its output must leave the previous file
// byte-identical, no temp file behind, and return fill's error as is.
func TestWriteFillErrorKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	old := []byte("previous contents")
	if err := Write(path, func(w io.Writer) error {
		_, err := w.Write(old)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	errFill := errors.New("fill failed")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new")); err != nil {
			return err
		}
		return errFill
	})
	if err != errFill {
		t.Fatalf("Write returned %v, want fill's error unwrapped", err)
	}
	assertOnlyFile(t, dir, path, old)
}

// assertOnlyFile checks that dir holds exactly path, with the given bytes.
func assertOnlyFile(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s holds %q, want %q", path, got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// TestMkdirAll: MkdirAll creates every missing level, accepts a directory
// that already exists, and refuses a path that names a regular file.
func TestMkdirAll(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "c")
	for i := 0; i < 2; i++ {
		if err := MkdirAll(dir); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("call %d: %s is not a directory afterwards (%v)", i+1, dir, err)
		}
	}
	file := filepath.Join(root, "a", "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{file, filepath.Join(file, "d")} {
		if err := MkdirAll(p); err == nil {
			t.Errorf("MkdirAll(%s) succeeded through a regular file", p)
		}
	}
}
