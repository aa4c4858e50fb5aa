package channel

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
)

// blockedServer always answers 503, pinning any client in its
// retry/backoff schedule.
func blockedServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv, &reqs
}

// TestBackoffInterruptedByCancel: the retry backoff selects on the
// context, so a cancelled client abandons a minutes-long backoff
// schedule in milliseconds. Before the backoff honoured cancellation,
// this test hung for the full 30-second sleep.
func TestBackoffInterruptedByCancel(t *testing.T) {
	srv, reqs := blockedServer(t)
	tr := NewHTTPTransport(srv.URL, HTTPOptions{
		Timeout:    5 * time.Second,
		MaxRetries: 5,
		Backoff:    30 * time.Second, // would sleep ~30s before the first retry
		Seed:       1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := tr.Manifest(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s — the backoff slept through it", elapsed)
	}
	if n := reqs.Load(); n != 1 {
		t.Errorf("%d requests before cancel, want 1 (cancel landed mid-backoff)", n)
	}
}

// TestSubscribeCancelMidBackoff: a Subscribe blocked on an unreachable
// tarball degrades to a PositionError wrapping the context's error as
// soon as the caller cancels — it does not sleep out the transport's
// backoff schedule first.
func TestSubscribeCancelMidBackoff(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, _ := publishOne(t, version)
	inner := NewServer(dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/updates/") || strings.HasPrefix(r.URL.Path, "/blob/") {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTPTransport(srv.URL, HTTPOptions{
		Timeout:    5 * time.Second,
		MaxRetries: 5,
		Backoff:    30 * time.Second,
		Seed:       1,
	})
	_, mgr := bootManager(t, version)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	applied, err := SyncOnce(ctx, ClientConfig{Transport: tr}, mgr, 0)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled subscribe returned after %s", elapsed)
	}
	pe, ok := IsPosition(err)
	if !ok {
		t.Fatalf("err = %v, want PositionError", err)
	}
	if pe.Position != 0 || len(applied) != 0 {
		t.Errorf("position %d with %d applied, want a clean stop at 0", pe.Position, len(applied))
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("PositionError does not wrap context.Canceled: %v", err)
	}
	if len(mgr.Applied()) != 0 {
		t.Errorf("%d updates live after a cancelled subscribe", len(mgr.Applied()))
	}
}

// TestClientCloseCancelsSync: Close aborts an in-flight Sync mid-backoff
// and refuses syncs afterwards; the recorded position stays consistent.
func TestClientCloseCancelsSync(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, _ := publishOne(t, version)
	inner := NewServer(dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/updates/") {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl, err := NewClient(ClientConfig{
		Name: "close-test",
		Transport: NewHTTPTransport(srv.URL, HTTPOptions{
			Timeout:    5 * time.Second,
			MaxRetries: 5,
			Backoff:    30 * time.Second,
			Seed:       1,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, mgr := bootManager(t, version)
	cl.Bind(mgr, 0)

	done := make(chan error, 1)
	go func() {
		_, err := cl.Sync(context.Background())
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cl.Close()
	select {
	case err := <-done:
		if _, ok := IsPosition(err); !ok {
			t.Fatalf("interrupted sync returned %v, want PositionError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("interrupted sync does not wrap context.Canceled: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the in-flight Sync")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %s to land", d)
	}
	if cl.Position() != 0 {
		t.Errorf("position %d after an interrupted sync at 0", cl.Position())
	}
	if _, err := cl.Sync(context.Background()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Sync on a closed client: %v, want a closed error", err)
	}
}

// TestClientSyncAndRollback: the happy path — a client syncs a machine
// to head, records its position, and Rollback pulls every update back
// out but never past the position the machine was bound at.
func TestClientSyncAndRollback(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)[:3]
	for i, c := range cves {
		if _, err := pub.Publish(fmt.Sprintf("u%d", i), c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}

	// The machine already runs the first update when the client binds it:
	// position 1 is the rollback floor.
	k, mgr := bootManager(t, version)
	if _, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, mgr, 0); err == nil {
		// Head is 3; this synced everything. Undo back to 1 so the client
		// starts mid-channel.
		for i := 0; i < 2; i++ {
			if err := mgr.Undo(core.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		t.Fatal(err)
	}

	cl, err := NewClient(ClientConfig{
		Name:      "rollback-test",
		Transport: NewDirTransport(dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Bind(mgr, 1)
	applied, err := cl.Sync(context.Background())
	if err != nil || len(applied) != 2 {
		t.Fatalf("sync from position 1: %d applied, err=%v", len(applied), err)
	}
	if cl.Position() != 3 {
		t.Fatalf("position %d after sync, want 3", cl.Position())
	}
	if got := runProbe(t, k, cves[2]); got != cves[2].Probe.FixedResult {
		t.Errorf("u2 probe = %d, want fixed %d", got, cves[2].Probe.FixedResult)
	}

	// Rollback to 0 floors at the bind position 1: exactly u2 and u1 come
	// back out, and u0 — applied before this client owned the machine —
	// stays live.
	n, err := cl.Rollback(0)
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if n != 2 || cl.Position() != 1 {
		t.Fatalf("rolled back %d to position %d, want 2 undos down to the floor 1", n, cl.Position())
	}
	if live := len(mgr.Applied()); live != 1 {
		t.Fatalf("%d updates live after rollback, want 1 (the pre-bind one)", live)
	}
	if got := runProbe(t, k, cves[0]); got != cves[0].Probe.FixedResult {
		t.Errorf("u0 probe = %d, want still-fixed %d (below the floor)", got, cves[0].Probe.FixedResult)
	}
	if bad, err := k.Call("stress_main", 50); err != nil || bad != 0 {
		t.Errorf("stress after rollback: %d, %v", bad, err)
	}
}
