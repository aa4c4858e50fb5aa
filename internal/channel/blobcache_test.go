package channel_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/durable"
)

// blob makes a distinct, incompressible payload of n bytes (so its
// on-disk size is about n, whatever the store's compression does) and
// returns it with its digest (what Put's callers verified before
// caching).
func blob(tag string, n int) (string, []byte) {
	b := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(b)
	copy(b, tag)
	d, _ := core.TarDigest(b)
	return d, b
}

// objectPath is where the cache's store keeps the blob named digest.
func objectPath(dir, digest string) string {
	return filepath.Join(dir, "objects", digest[:2], digest[2:])
}

// age backdates a file's mtime so the LRU sweep (or the temp sweep)
// sees it as old.
func age(t *testing.T, path string, by time.Duration) {
	t.Helper()
	old := time.Now().Add(-by)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// TestDirBlobCacheGC: a capped cache evicts least-recently-used blobs
// when a Put pushes it past the cap — but never blobs this process has
// touched, mirroring the artifact store GC's protection rule.
func TestDirBlobCacheGC(t *testing.T) {
	dir := t.TempDir()

	// Seed the directory as a *previous process*: write blobs through an
	// uncapped cache, then reopen. Touched-set protection is per-process,
	// so the reopened cache sees these as fair game.
	seeder, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		d, b := blob(fmt.Sprintf("old-%d", i), 1000)
		seeder.Put(d, b)
		digests[i] = d
		// Strictly increasing ages, oldest first, so eviction order is
		// deterministic.
		age(t, objectPath(dir, d), time.Duration(n-i)*time.Hour)
	}

	// Cap: room for four 1000-byte blobs and a little slack.
	c, err := channel.NewDirBlobCacheMax(dir, 4500)
	if err != nil {
		t.Fatal(err)
	}

	// Reading a blob protects it, even though it is the oldest.
	if _, ok := c.Get(digests[0]); !ok {
		t.Fatalf("blob %d missing before any eviction", 0)
	}

	// One new Put lands the directory at seven stored blobs (each 1000
	// bytes plus the store's header); the sweep must evict down to the
	// cap, oldest-first, skipping the protected blob.
	dNew, bNew := blob("new", 1000)
	c.Put(dNew, bNew)

	if _, err := os.Stat(objectPath(dir, dNew)); err != nil {
		t.Error("just-put blob evicted")
	}
	if _, err := os.Stat(objectPath(dir, digests[0])); err != nil {
		t.Error("touched blob evicted despite protection")
	}
	// digests[1..3] were the oldest unprotected blobs: swept.
	for i := 1; i <= 3; i++ {
		if _, err := os.Stat(objectPath(dir, digests[i])); !os.IsNotExist(err) {
			t.Errorf("blob %d survived a sweep that needed its bytes", i)
		}
	}
	// The two newest seeded blobs fit under the cap with the rest: kept.
	for i := 4; i < n; i++ {
		if _, ok := c.Get(digests[i]); !ok {
			t.Errorf("blob %d evicted though the cache was under cap without it", i)
		}
	}

	// The directory really is under the cap now.
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	if total > 4500 {
		t.Errorf("cache holds %d bytes, cap is 4500", total)
	}
}

// TestDirBlobCacheUnbounded: cap <= 0 never evicts.
func TestDirBlobCacheUnbounded(t *testing.T) {
	dir := t.TempDir()
	c, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 8; i++ {
		d, b := blob(fmt.Sprintf("b-%d", i), 2048)
		c.Put(d, b)
		digests = append(digests, d)
	}
	// Read back through a reopened cache, so the disk answers.
	c2, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range digests {
		if _, ok := c2.Get(d); !ok {
			t.Errorf("blob %d evicted from an unbounded cache", i)
		}
	}
}

// TestDirBlobCacheTmpSweep: temp files a crashed writer left behind are
// removed on open once they are over a minute old; younger ones, which a
// live process sharing the directory may still own, and real blobs are
// not.
func TestDirBlobCacheTmpSweep(t *testing.T) {
	dir := t.TempDir()
	c, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, b := blob("keep", 100)
	c.Put(d, b)
	tmp := durable.TempPrefix(d[2:])
	stray := filepath.Join(filepath.Dir(objectPath(dir, d)), tmp+"crashed")
	live := filepath.Join(filepath.Dir(objectPath(dir, d)), tmp+"live")
	for _, p := range []string{stray, live} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	age(t, stray, 2*time.Minute)

	c2, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray temp survived reopen")
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("a minute-young temp was swept: %v", err)
	}
	if _, ok := c2.Get(d); !ok {
		t.Error("real blob removed by the tmp sweep")
	}
}

// TestDirBlobCacheVerifiesDigest: the cache can never hand out bytes
// that do not hash to the digest asked for — not bytes Put under the
// wrong digest, and not a well-formed store entry misfiled on disk under
// another blob's name, which is dropped.
func TestDirBlobCacheVerifiesDigest(t *testing.T) {
	dir := t.TempDir()
	c, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	dA, bA := blob("a", 100)
	dB, bB := blob("b", 100)
	c.Put(dB, bA)
	if _, ok := c.Get(dB); ok {
		t.Fatal("Get served bytes Put under the wrong digest")
	}

	c.Put(dA, bA)
	entry, err := os.ReadFile(objectPath(dir, dA))
	if err != nil {
		t.Fatal(err)
	}
	misfiled := objectPath(dir, dB)
	os.MkdirAll(filepath.Dir(misfiled), 0o755)
	if err := os.WriteFile(misfiled, entry, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(dB); ok {
		t.Error("Get served a misfiled entry")
	}
	if _, err := os.Stat(misfiled); !os.IsNotExist(err) {
		t.Error("misfiled entry left on disk")
	}
	c2.Put(dB, bB)
	if got, ok := c2.Get(dB); !ok || string(got) != string(bB) {
		t.Error("the right bytes were not cached after the misfiled entry was dropped")
	}
}
