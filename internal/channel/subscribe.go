package channel

import (
	"context"
	"errors"
	"fmt"

	"gosplice/internal/core"
)

// PositionError reports a subscription that stopped before the channel
// head — the channel became unreachable, an entry stayed corrupt through
// every refetch, an apply failed, or the caller's context was cancelled.
// The machine remains consistent: exactly Position updates are applied
// (the original position plus everything this call managed), no update is
// partially applied, and a later Sync from Position resumes where this
// one stopped.
type PositionError struct {
	// Position is the machine's channel position after the partial
	// subscribe.
	Position int
	// Entry names the update that could not be fetched or applied
	// ("" when the manifest itself was unavailable).
	Entry string
	Err   error
}

func (e *PositionError) Error() string {
	what := "manifest"
	if e.Entry != "" {
		what = e.Entry
	}
	return fmt.Sprintf("channel: stopped at position %d (%s): %v", e.Position, what, e.Err)
}

func (e *PositionError) Unwrap() error { return e.Err }

// fetchVerified fetches one entry and verifies it end to end, re-fetching
// on integrity failures. Transport errors are not retried here (the
// transport already did); they surface immediately.
//
// When the manifest advertises a delta onto this tarball and the blob
// cache holds its base, the bytes are reconstructed from the delta
// first; any delta failure falls through to the full fetch below, so
// deltas can only save bandwidth, never lose an update. Either way the
// verified tarball is cached as the next entry's delta base.
func fetchVerified(ctx context.Context, t Transport, m *Manifest, e Entry, blobs BlobCache, retries int, ms *clientMetrics) (*core.Update, []byte, error) {
	// Blob cache first: a machine that already verified these exact
	// bytes (an earlier sync killed before its position committed, a
	// rollback being re-applied) re-applies from local disk without
	// touching the wire. Get re-verifies the digest, so a rotted blob
	// falls through to the fetch below.
	if b, ok := blobs.Get(e.Sha256); ok {
		if u, err := decodeVerified(b, e); err == nil {
			return u, b, nil
		}
	}
	if b, ok := fetchViaDelta(ctx, t, m, e, blobs, ms); ok {
		if u, err := decodeVerified(b, e); err == nil {
			return u, b, nil
		}
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		b, err := t.Fetch(ctx, e)
		if err != nil {
			return nil, nil, err
		}
		ms.bytesOverWire.Add(uint64(len(b)))
		u, err := decodeVerified(b, e)
		if err == nil {
			blobs.Put(e.Sha256, b)
			return u, b, nil
		}
		// Digest mismatch or unparseable bytes: the transport delivered
		// garbage. Fetch again; never interpret or apply what we have.
		ms.refetches.Inc()
		lastErr = err
	}
	return nil, nil, fmt.Errorf("corrupt after %d fetches: %w", retries+1, lastErr)
}

// decodeVerified turns fetched bytes into an update, enforcing the
// manifest's digest and size.
func decodeVerified(b []byte, e Entry) (*core.Update, error) {
	return core.ReadTarVerified(b, e.Sha256, e.Size)
}

// IsPosition reports whether err is a graceful partial-subscribe stop and
// returns it when so.
func IsPosition(err error) (*PositionError, bool) {
	var pe *PositionError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
