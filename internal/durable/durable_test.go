package durable_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/durable"
	"gosplice/internal/simstate"
	"gosplice/internal/store"
)

// step is one file-system call the recorder saw. Path is the file for
// write/fsync/close/chmod/remove, the directory for create/open/
// syncdir/closedir, and the destination for rename.
type step struct{ op, path string }

var errInjected = errors.New("injected failure")

// recorder is a fake file system over the real one: it logs every step
// WriteFile and SyncDir take, and fails the first step whose op is fail.
type recorder struct {
	mu   sync.Mutex
	log  []step
	fail string
}

// record logs a step and reports the injected error if it is the one to
// fail.
func (r *recorder) record(op, path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, step{op, path})
	if op == r.fail {
		r.fail = ""
		return errInjected
	}
	return nil
}

func (r *recorder) steps() []step {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]step(nil), r.log...)
}

// swap installs a fresh recorder failing at op ("" for none) for the
// rest of the test.
func swap(t *testing.T, fail string) *recorder {
	r := &recorder{fail: fail}
	t.Cleanup(durable.SwapFS(r))
	return r
}

func (r *recorder) CreateTemp(dir, pattern string) (durable.File, error) {
	if err := r.record("create", dir); err != nil {
		return nil, err
	}
	f, err := durable.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r}, nil
}

func (r *recorder) Open(name string) (durable.File, error) {
	if err := r.record("open", name); err != nil {
		return nil, err
	}
	f, err := durable.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r, dir: true}, nil
}

func (r *recorder) Chmod(name string, mode os.FileMode) error {
	if err := r.record("chmod", name); err != nil {
		return err
	}
	return durable.OS.Chmod(name, mode)
}

func (r *recorder) Rename(oldpath, newpath string) error {
	if err := r.record("rename", newpath); err != nil {
		return err
	}
	return durable.OS.Rename(oldpath, newpath)
}

func (r *recorder) Remove(name string) error {
	r.record("remove", name)
	return durable.OS.Remove(name)
}

type recFile struct {
	durable.File
	r   *recorder
	dir bool
}

func (f *recFile) Write(b []byte) (int, error) {
	if err := f.r.record("write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(b)
}

func (f *recFile) Sync() error {
	op := "fsync"
	if f.dir {
		op = "syncdir"
	}
	if err := f.r.record(op, f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

// Close always releases the real file, then reports any injected error.
func (f *recFile) Close() error {
	op := "close"
	if f.dir {
		op = "closedir"
	}
	injected := f.r.record(op, f.Name())
	err := f.File.Close()
	if injected != nil {
		return injected
	}
	return err
}

func ops(steps []step) []string {
	var out []string
	for _, s := range steps {
		out = append(out, s.op)
	}
	return out
}

// temps lists WriteFile temp files left in dir.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestWriteFileOrder pins the durable sequence: write, file fsync,
// close, chmod, rename, and only then the directory fsync — of the
// target's own directory.
func TestWriteFileOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	r := swap(t, "")
	if err := durable.WriteFile(path, []byte("new"), 0o644, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	got := ops(r.steps())
	want := []string{"create", "write", "fsync", "close", "chmod", "rename", "open", "syncdir", "closedir"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("steps %v, want %v", got, want)
	}
	steps := r.steps()
	if steps[5].path != path || steps[7].path != dir {
		t.Errorf("renamed to %s and synced %s, want %s and %s", steps[5].path, steps[7].path, path, dir)
	}
	if !strings.HasPrefix(filepath.Base(steps[1].path), durable.TempPrefix("f")) {
		t.Errorf("temp file %s lacks the %q prefix", steps[1].path, durable.TempPrefix("f"))
	}
	if b, _ := os.ReadFile(path); string(b) != "new" {
		t.Errorf("target holds %q", b)
	}
}

// TestWriteFileFailureLeavesTarget: a failure at any step before the
// rename returns the error, leaves the old target byte-for-byte, and
// removes the temp file.
func TestWriteFileFailureLeavesTarget(t *testing.T) {
	for _, op := range []string{"create", "write", "fsync", "close", "chmod", "rename"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			swap(t, op)
			if err := durable.WriteFile(path, []byte("new"), 0o644, nil, "", ""); !errors.Is(err, errInjected) {
				t.Fatalf("WriteFile = %v, want the injected %s failure", err, op)
			}
			if b, _ := os.ReadFile(path); string(b) != "old" {
				t.Errorf("target holds %q after a failed %s", b, op)
			}
			if left := temps(t, dir); len(left) > 0 {
				t.Errorf("temp files %v left after a failed %s", left, op)
			}
		})
	}
}

// TestWriteFileDirSyncError: the rename has happened, but a failed
// directory fsync means it may not survive a power loss, so WriteFile
// must say so.
func TestWriteFileDirSyncError(t *testing.T) {
	for _, op := range []string{"open", "syncdir", "closedir"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			swap(t, op)
			if err := durable.WriteFile(path, []byte("new"), 0o644, nil, "", ""); !errors.Is(err, errInjected) {
				t.Fatalf("WriteFile = %v, want the injected %s failure", err, op)
			}
			if left := temps(t, dir); len(left) > 0 {
				t.Errorf("temp files %v left", left)
			}
		})
	}
}

// TestWriteFileMode: the mode is applied exactly (not masked by the
// umask), and replacing a file resets it.
func TestWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "key")
	for _, mode := range []os.FileMode{0o644, 0o600} {
		if err := durable.WriteFile(path, []byte("k"), mode, nil, "", ""); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != mode {
			t.Errorf("mode %v, want %v", fi.Mode().Perm(), mode)
		}
	}
}

// TestWriteFileLabels: the two labels fire once each, in order, on the
// instance hook; empty labels fire nothing — not even on the global hook
// a kill plan matching any label would sit on.
func TestWriteFileLabels(t *testing.T) {
	dir := t.TempDir()
	var fired []string
	hook := func(label string) { fired = append(fired, label) }
	if err := durable.WriteFile(filepath.Join(dir, "a"), nil, 0o644, hook, "x.tmp", "x.renamed"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"x.tmp", "x.renamed"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}

	inst, global := crashpoint.NewCounter(), crashpoint.NewCounter()
	defer crashpoint.SetGlobal(global.Hook())()
	if err := durable.WriteFile(filepath.Join(dir, "b"), nil, 0o644, inst.Hook(), "", ""); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(filepath.Join(dir, "c"), nil, 0o644, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	if len(inst.Counts()) != 0 || len(global.Counts()) != 0 {
		t.Errorf("empty labels fired: instance %v, global %v", inst.Counts(), global.Counts())
	}
}

// TestWriteFileDeathLeavesTemp: a simulated death at the temp label
// unwinds without cleanup, as a real kill would — the temp stays for
// the caller's sweep and the target is untouched.
func TestWriteFileDeathLeavesTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	plan := crashpoint.NewPlan("x.tmp", 1)
	death := crashpoint.Catch(func() {
		durable.WriteFile(path, []byte("new"), 0o644, plan.Hook(), "x.tmp", "x.renamed")
	})
	if death == nil {
		t.Fatal("crash point never fired")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("target exists after a death before the rename")
	}
	if left := temps(t, dir); len(left) != 1 {
		t.Errorf("temps %v, want the one the dead writer left", left)
	}
}

// requireRenamesSynced fails unless the log renames something into each
// of targets, and every rename it holds is followed by an fsync of the
// renamed file's directory.
func requireRenamesSynced(t *testing.T, steps []step, targets ...string) {
	t.Helper()
	renamed := map[string]bool{}
	for i, s := range steps {
		if s.op != "rename" {
			continue
		}
		renamed[s.path] = true
		synced := false
		for _, later := range steps[i+1:] {
			if later.op == "syncdir" && later.path == filepath.Dir(s.path) {
				synced = true
				break
			}
		}
		if !synced {
			t.Errorf("rename to %s not followed by a directory fsync", s.path)
		}
	}
	for _, p := range targets {
		if !renamed[p] {
			t.Errorf("no durable write of %s", p)
		}
	}
}

// The caller classes: each persistent writer in the tree goes through
// WriteFile, and so fsyncs the directory it renamed into.

func TestPublisherSyncsDir(t *testing.T) {
	dir := t.TempDir()
	version := cvedb.Versions[0]
	cve := cvedb.ForVersion(version)[0]
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	r := swap(t, "")
	if _, err := pub.Publish("u0", cve.ID, cve.Patch()); err != nil {
		t.Fatal(err)
	}
	requireRenamesSynced(t, r.steps(), filepath.Join(dir, "u0.tar"), filepath.Join(dir, "channel.json"))

	key, err := channel.GenerateSignKey()
	if err != nil {
		t.Fatal(err)
	}
	keyPath := filepath.Join(t.TempDir(), "sign.key")
	if err := channel.WriteSignKey(keyPath, key); err != nil {
		t.Fatal(err)
	}
	requireRenamesSynced(t, r.steps(), keyPath, keyPath+".pub")
	for path, mode := range map[string]os.FileMode{keyPath: 0o600, keyPath + ".pub": 0o644} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != mode {
			t.Errorf("%s: mode %v, want %v", filepath.Base(path), fi.Mode().Perm(), mode)
		}
	}
}

func TestJournalSyncsDir(t *testing.T) {
	dir := t.TempDir()
	r := swap(t, "")
	st, _, err := channel.OpenClientState(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.steps(), []step{{"open", dir}, {"syncdir", dir}, {"closedir", dir}}) {
		t.Errorf("creating the journal: steps %v, want one fsync of %s", r.steps(), dir)
	}
	if err := st.Rebase(3, "v"); err != nil {
		t.Fatal(err)
	}
	requireRenamesSynced(t, r.steps(), channel.JournalPath(dir))
	st.Close()

	r = swap(t, "")
	st, _, err = channel.OpenClientState(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if len(r.steps()) != 0 {
		t.Errorf("reopening an existing journal: steps %v, want none", r.steps())
	}
}

func TestSimstateSyncsDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.json")
	st, err := simstate.New(cvedb.Versions[0])
	if err != nil {
		t.Fatal(err)
	}
	r := swap(t, "")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	requireRenamesSynced(t, r.steps(), path)
}

func TestStoreSyncsDir(t *testing.T) {
	dir := t.TempDir()
	s, err := store.New(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw := store.Kind{
		Name:   "raw",
		Size:   func(v any) int64 { return int64(len(v.([]byte))) },
		Encode: func(v any) ([]byte, error) { return v.([]byte), nil },
		Decode: func(b []byte) (any, error) { return b, nil },
	}
	key := store.Key("durable-test")
	r := swap(t, "")
	if _, err := s.Put(key, raw, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	requireRenamesSynced(t, r.steps(), filepath.Join(dir, "objects", key[:2], key[2:]))
}

func TestBlobCacheSyncsDir(t *testing.T) {
	dir := t.TempDir()
	c, err := channel.NewDirBlobCacheMax(dir, channel.DefaultBlobCacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte("blob")
	digest, _ := core.TarDigest(b)
	r := swap(t, "")
	c.Put(digest, b)
	requireRenamesSynced(t, r.steps(), filepath.Join(dir, "objects", digest[:2], digest[2:]))
}
