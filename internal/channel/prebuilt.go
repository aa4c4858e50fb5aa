package channel

// Subscriber-side base-set installation and delta-aware tarball
// fetching — the client half of the channel's build-once story. Both
// are strictly best-effort: any failure here degrades to what the
// subscriber always did (fetch whole tarballs, or compile from source),
// never to an error the caller sees.

import (
	"context"

	"gosplice/internal/core"
	"gosplice/internal/diffutil"
	"gosplice/internal/srctree"
)

// blobDigest is the digest the blob's bytes would be advertised under.
func blobDigest(b []byte) string {
	d, _ := core.TarDigest(b)
	return d
}

// InstallStats summarizes one prebuilt install pass.
type InstallStats struct {
	// Installed counts artifacts fetched and filed into the local build
	// store.
	Installed int
	// Hits counts artifacts the store already held — nothing fetched.
	Hits int
	// Failed counts artifacts skipped after a fetch or decode failure;
	// the source-build fallback covers whatever they were.
	Failed int
}

// installBase files every base-set artifact the local build store is
// missing. Failures degrade silently to source builds.
func installBase(ctx context.Context, t Transport, m *Manifest, blobs BlobCache, ms *clientMetrics) InstallStats {
	var st InstallStats
	for _, a := range m.Prebuilt {
		if ctx.Err() != nil {
			// Cancelled mid-pass: everything not yet installed falls to
			// the source-build path, exactly like a fetch failure.
			st.Failed++
			continue
		}
		if srctree.HasPrebuilt(a.StoreKey) {
			ms.prebuiltHits.Inc()
			st.Hits++
			continue
		}
		b, ok := fetchBlobVerified(ctx, t, a.Sha256, a.Size, blobs, ms)
		if !ok {
			st.Failed++
			continue
		}
		if err := srctree.ImportPrebuilt(a.Kind, a.StoreKey, b); err != nil {
			// The payload hashed right but does not decode as its kind —
			// a publisher bug, not a transfer fault. The source build
			// covers it.
			st.Failed++
			continue
		}
		st.Installed++
	}
	return st
}

// fetchBlobVerified obtains one advertised artifact blob by digest:
// from the local cache, or by fetching it whole (base-set blobs have no
// delta). Whatever the path, the returned bytes hash to digest;
// ok=false means every path failed.
func fetchBlobVerified(ctx context.Context, t Transport, digest string, size int64, blobs BlobCache, ms *clientMetrics) ([]byte, bool) {
	if b, ok := blobs.Get(digest); ok {
		return b, true
	}
	b, err := t.FetchBlob(ctx, digest, size)
	if err != nil {
		return nil, false
	}
	ms.bytesOverWire.Add(uint64(len(b)))
	if got := blobDigest(b); got != digest {
		return nil, false
	}
	blobs.Put(digest, b)
	return b, true
}

// fetchViaDelta reconstructs entry e's tarball from an advertised
// binary delta, when one exists and its base is in the local cache.
// Every failure past "a delta was advertised and we hold its base"
// counts a full-fetch fallback; the delta format is self-verifying
// (base and result digests are in the header), so corrupt deltas and
// wrong bases are caught before any reconstructed byte is trusted, and
// the decoder allocates no more than the entry's advertised size.
func fetchViaDelta(ctx context.Context, t Transport, m *Manifest, e Entry, blobs BlobCache, ms *clientMetrics) ([]byte, bool) {
	d := m.DeltaFor(e.Sha256)
	if d == nil {
		return nil, false
	}
	base, ok := blobs.Get(d.BaseSha256)
	if !ok {
		ms.deltaFallback.Inc()
		return nil, false
	}
	db, err := t.FetchBlob(ctx, d.Sha256, d.Size)
	if err != nil {
		ms.deltaFallback.Inc()
		return nil, false
	}
	ms.bytesOverWire.Add(uint64(len(db)))
	if blobDigest(db) != d.Sha256 {
		ms.deltaFallback.Inc()
		return nil, false
	}
	b, err := diffutil.ApplyDelta(base, db, e.Size)
	if err != nil {
		ms.deltaFallback.Inc()
		return nil, false
	}
	if blobDigest(b) != e.Sha256 {
		// Publisher advertised a delta whose result is not the tarball —
		// caught here, fall back to the whole fetch.
		ms.deltaFallback.Inc()
		return nil, false
	}
	ms.deltaApplied.Inc()
	blobs.Put(e.Sha256, b)
	return b, true
}
