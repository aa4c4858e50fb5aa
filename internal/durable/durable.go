// Package durable is the repository's one atomic-file writer. Every
// file gosplice persists — channel tarballs, blobs, manifests and keys,
// the apply journal's compactions, machine state, the artifact store's
// disk tier — is installed by WriteFile: a temp file in the target
// directory, written and fsynced, renamed over the target, and then the
// directory itself fsynced so the rename survives a power loss and not
// only a process kill.
//
// Besides the standard library it imports only internal/crashpoint
// (itself stdlib-only), so each caller can pass the crash-point labels
// that bracket its rename.
package durable

import (
	"os"
	"path/filepath"

	"gosplice/internal/crashpoint"
)

// fsys is the file-system seam under WriteFile and SyncDir; tests swap
// it to record the call order and inject failures.
type fsys interface {
	CreateTemp(dir, pattern string) (file, error)
	Open(name string) (file, error)
	Chmod(name string, mode os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// file is the part of *os.File WriteFile and SyncDir use.
type file interface {
	Name() string
	Write(b []byte) (int, error)
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (file, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (file, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Chmod(name string, mode os.FileMode) error { return os.Chmod(name, mode) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }

var disk fsys = osFS{}

// TempPrefix is the name prefix of WriteFile's temp files for target
// base name base: ".tmp-<base>-". Callers that sweep a crashed writer's
// leftovers match on it.
func TempPrefix(base string) string { return ".tmp-" + base + "-" }

// WriteFile atomically replaces path with b at the given mode: a temp
// file named TempPrefix(base) plus a random suffix is created in path's
// directory, written, fsynced, closed and chmodded; tmpLabel fires; the
// temp file is renamed over path; doneLabel fires; and the directory is
// fsynced. Readers — and a process restarted after a crash — see the
// old file or the new one, never a torn one.
//
// hook receives the two crash points (nil falls back to the
// process-global hook, see crashpoint.Fire); an empty label fires
// nothing, so writers without crash points stay invisible to kill plans
// that match any label. A failing step removes the temp file and
// returns its error. A simulated death at a crash point unwinds without
// cleanup, exactly as a real kill would, leaving the temp file for the
// caller's sweep.
func WriteFile(path string, b []byte, mode os.FileMode, hook crashpoint.Hook, tmpLabel, doneLabel string) error {
	dir := filepath.Dir(path)
	f, err := disk.CreateTemp(dir, TempPrefix(filepath.Base(path))+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = disk.Chmod(tmp, mode)
	}
	if err == nil {
		fire(hook, tmpLabel)
		err = disk.Rename(tmp, path)
	}
	if err != nil {
		disk.Remove(tmp)
		return err
	}
	fire(hook, doneLabel)
	return SyncDir(dir)
}

func fire(hook crashpoint.Hook, label string) {
	if label != "" {
		crashpoint.Fire(hook, label)
	}
}

// SyncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func SyncDir(dir string) error {
	d, err := disk.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
