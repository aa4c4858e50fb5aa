package channel

// BlobCache is the subscriber's local pool of verified blobs, keyed by
// content digest. It is what makes binary deltas usable: the cache
// holds the previous position's tarball and image, so the next
// position's bytes reconstruct from a delta instead of a full fetch.
// Everything in the cache was digest-verified before Put, and the
// directory implementation re-verifies what it stores and what it reads
// back from disk, so a cache can never inject bytes the manifest did not
// promise.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/store"
)

// BlobCache stores verified blobs by hex sha256 digest.
type BlobCache interface {
	// Get returns the cached blob, or ok=false when absent.
	Get(digest string) ([]byte, bool)
	// Put stores a blob the caller has already verified against digest.
	Put(digest string, b []byte)
}

// NewMemBlobCache returns an in-memory cache — what a Client without a
// StateDir uses to chain deltas across the entries it fetches. Not safe for
// concurrent use; each subscriber owns its cache.
func NewMemBlobCache() BlobCache {
	return memBlobCache{}
}

type memBlobCache map[string][]byte

func (c memBlobCache) Get(digest string) ([]byte, bool) {
	b, ok := c[digest]
	return b, ok
}

func (c memBlobCache) Put(digest string, b []byte) {
	c[digest] = append([]byte(nil), b...)
}

// DefaultBlobCacheBytes caps a DirBlobCache: generous against the
// corpus's blob sizes (a release's full artifact set is well under 1
// MiB) but bounded, so a machine that subscribes across many releases
// does not grow its cache without limit.
const DefaultBlobCacheBytes = 64 << 20

// DirBlobCache persists blobs in a disk-backed artifact store (see
// internal/store) keyed by digest, so a machine's delta bases survive
// across subscribes (and processes): the tarball it verified last month
// is next month's delta base. The store does all the file work — atomic
// durable writes, the open-time temp sweep, mtime refresh on disk reads —
// and its memory tier, capped like the disk, serves repeat reads.
//
// The cache is capped (see NewDirBlobCacheMax): when a Put pushes the
// disk tier past the cap, the store's GC evicts the oldest blobs, least
// recently used first — except blobs this process has touched, which
// are never evicted, so a sweep cannot pull a delta base out from under
// the subscribe that is about to use it.
type DirBlobCache struct {
	st       *store.Store
	maxBytes int64
	crash    crashpoint.Hook

	mu sync.Mutex
	// used is the disk tier's size as of the last sweep plus the raw
	// bytes put since (an overestimate: the store may compress); a Put
	// sweeps only when it passes the cap, since a sweep walks the whole
	// directory. Other processes' writes are counted at the next sweep.
	used int64
}

// SetCrashHook installs the cache's crash-point hook (nil falls back
// to the process-global hook) — how a fault plan schedules a simulated
// process death inside this cache's write path.
func (c *DirBlobCache) SetCrashHook(h crashpoint.Hook) { c.crash = h }

// NewDirBlobCache opens (creating if needed) a blob cache directory with
// the default size cap.
func NewDirBlobCache(dir string) (*DirBlobCache, error) {
	return NewDirBlobCacheMax(dir, DefaultBlobCacheBytes)
}

// NewDirBlobCacheMax opens a blob cache capped at maxBytes of stored
// blob bytes (<= 0 means unbounded). Stray temp files from crashed
// writers are swept on open.
func NewDirBlobCacheMax(dir string, maxBytes int64) (*DirBlobCache, error) {
	c := &DirBlobCache{maxBytes: maxBytes}
	st, err := store.New(store.Options{
		Dir:      dir,
		MaxBytes: maxBytes,
		Crash:    func(label string) { crashpoint.Fire(c.crash, label) },
	})
	if err != nil {
		return nil, err
	}
	c.st = st
	_, c.used = st.DiskUsage()
	return c, nil
}

// validDigest guards the digest-as-key mapping: only a 64-char hex
// string names a cached blob, so no digest can traverse paths.
func validDigest(digest string) bool {
	if len(digest) != 64 {
		return false
	}
	_, err := hex.DecodeString(digest)
	return err == nil
}

var errBlobMiss = errors.New("channel: blob not cached")

// blobKind is the store Kind of the blob named digest: raw bytes whose
// decoder re-checks TarDigest(b) == digest. Every byte entering the
// cache — a Put or a disk read — passes it, so a blob rotted or
// misfiled on disk degrades to a miss (and a full fetch), never to
// bytes the manifest did not promise.
func blobKind(digest string) store.Kind {
	return store.Kind{
		Name:   "blob",
		Size:   func(v any) int64 { return int64(len(v.([]byte))) },
		Encode: func(v any) ([]byte, error) { return v.([]byte), nil },
		Decode: func(b []byte) (any, error) {
			if got, _ := core.TarDigest(b); got != digest {
				return nil, fmt.Errorf("channel: cached blob does not match digest %s", digest)
			}
			return b, nil
		},
	}
}

// Get returns the blob verified against digest, or ok=false.
func (c *DirBlobCache) Get(digest string) ([]byte, bool) {
	if !validDigest(digest) {
		return nil, false
	}
	v, _, err := c.st.GetOrFill(digest, blobKind(digest), func() (any, error) { return nil, errBlobMiss })
	if err != nil {
		return nil, false
	}
	return v.([]byte), true
}

// Put is best-effort: a cache write failure costs bandwidth later, not
// correctness now. The store writes the blob durably, with its
// store.disk.write.* crash points on either side of the rename, so a
// writer killed mid-Put leaves either a swept-on-open temp file or a
// complete, verifiable blob. A Put that pushes the cache past its cap
// evicts the least recently used unprotected blobs.
func (c *DirBlobCache) Put(digest string, b []byte) {
	if !validDigest(digest) {
		return
	}
	if _, err := c.st.Put(digest, blobKind(digest), append([]byte(nil), b...)); err != nil {
		return
	}
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used += int64(len(b)); c.used > c.maxBytes {
		if res, err := c.st.GC(c.maxBytes); err == nil {
			c.used = res.ScannedBytes - res.FreedBytes
		}
	}
}
