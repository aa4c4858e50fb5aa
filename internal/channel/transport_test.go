package channel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// publishOne builds a single-update channel for version and returns the
// directory, the CVE it fixes, and the published tarball's bytes.
func publishOne(t *testing.T, version string) (string, *cvedb.CVE, []byte) {
	t.Helper()
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	c := cvedb.ForVersion(version)[0]
	if _, err := pub.Publish("u0", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, m.Updates[0].File))
	if err != nil {
		t.Fatal(err)
	}
	return dir, c, b
}

func bootManager(t *testing.T, version string) (*kernel.Kernel, *core.Manager) {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	return k, core.NewManager(k)
}

// TestPublisherSweepsStrayTemps: a crashed publish leaves ".tmp-*" files
// behind; reopening the channel removes them and publishing continues.
func TestPublisherSweepsStrayTemps(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, _ := publishOne(t, version)
	stray := filepath.Join(dir, ".tmp-crashed-123")
	if err := os.WriteFile(stray, []byte("half a tarball"), 0o644); err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatalf("resume over a stray temp file: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray temp file survived resume")
	}
	c := cvedb.ForVersion(version)[1]
	if _, err := pub.Publish("u1", c.ID, c.Patch()); err != nil {
		t.Fatalf("publish after resume: %v", err)
	}
	if m, err := ReadManifest(dir); err != nil || len(m.Updates) != 2 {
		t.Fatalf("manifest after resume: %v, %v", m, err)
	}
}

// TestManifestTamperDetected: the manifest's self-digest catches content
// changes that are still valid JSON, and a manifest stripped of its
// digest, or an entry stripped of its own, is refused rather than
// accepted unverified.
func TestManifestTamperDetected(t *testing.T) {
	dir, _, _ := publishOne(t, cvedb.Versions[0])
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	// restamp re-encodes m with a freshly computed self-digest, so only
	// the stripped field is wrong.
	restamp := func(m Manifest) []byte {
		m.Digest = ""
		d, err := m.computeDigest()
		if err != nil {
			t.Fatal(err)
		}
		m.Digest = d
		out, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	noDigest := *m
	noDigest.Digest = ""
	stripped, err := json.Marshal(&noDigest)
	if err != nil {
		t.Fatal(err)
	}
	noEntryDigest := *m
	noEntryDigest.Updates = []Entry{m.Updates[0]}
	noEntryDigest.Updates[0].Sha256 = ""
	noArtifactSize := *m
	noArtifactSize.Prebuilt = append([]Artifact(nil), m.Prebuilt...)
	noArtifactSize.Prebuilt[0].Size = 0
	tampered := bytes.Replace(b, []byte(`"name": "u0"`), []byte(`"name": "uX"`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("tamper did not change the manifest")
	}
	for name, in := range map[string][]byte{
		"renamed entry":      tampered,
		"stripped digest":    stripped,
		"entry without sha":  restamp(noEntryDigest),
		"artifact size zero": restamp(noArtifactSize),
	} {
		if _, err := DecodeManifest(in); err == nil {
			t.Errorf("%s: manifest passed verification", name)
		}
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("ReadManifest accepted a tampered manifest")
	}
}

// TestCorruptTarballNeverApplied: a tarball corrupted at rest fails the
// digest check on every fetch; Subscribe stops at a clean position and
// the machine still runs its original (vulnerable but consistent) code —
// the corrupt bytes never reach Apply.
func TestCorruptTarballNeverApplied(t *testing.T) {
	version := cvedb.Versions[0]
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x10
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, c, raw := publishOne(t, version)
			m, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			tarPath := filepath.Join(dir, m.Updates[0].File)
			if err := os.WriteFile(tarPath, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			k, mgr := bootManager(t, version)
			applied, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, mgr, 0)
			if err == nil || len(applied) != 0 {
				t.Fatalf("corrupt tarball applied: %d updates, err=%v", len(applied), err)
			}
			pe, ok := IsPosition(err)
			if !ok {
				t.Fatalf("error is not a PositionError: %v", err)
			}
			if pe.Position != 0 || pe.Entry != "u0" {
				t.Errorf("stopped at %d (%q), want position 0 at u0", pe.Position, pe.Entry)
			}
			if !strings.Contains(err.Error(), "u0") {
				t.Errorf("error does not name the entry: %v", err)
			}
			if len(mgr.Applied()) != 0 {
				t.Fatalf("%d updates live after a corrupt subscribe", len(mgr.Applied()))
			}
			// The machine is untouched: probe still reports the vulnerable
			// result, stress stays clean.
			if got := runProbe(t, k, c); got != c.Probe.VulnResult {
				t.Errorf("probe = %d, want untouched vulnerable result %d", got, c.Probe.VulnResult)
			}
			if bad, err := k.Call("stress_main", 50); err != nil || bad != 0 {
				t.Errorf("stress after rejected update: %d, %v", bad, err)
			}
		})
	}
}

// TestSubscribeMissingTarball: a manifest entry whose file is gone stops
// the subscribe gracefully at the entry before it.
func TestSubscribeMissingTarball(t *testing.T) {
	dir, _, _ := publishOne(t, cvedb.Versions[0])
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, m.Updates[0].File)); err != nil {
		t.Fatal(err)
	}
	_, mgr := bootManager(t, cvedb.Versions[0])
	_, err = SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, mgr, 0)
	pe, ok := IsPosition(err)
	if !ok || pe.Position != 0 {
		t.Fatalf("missing tarball: err=%v, want PositionError at 0", err)
	}
}

// flakyTransport serves a fixed manifest and scripted fetch results.
type flakyTransport struct {
	m       *Manifest
	fetches atomic.Int64
	fetch   func(n int64, e Entry) ([]byte, error)
}

func (f *flakyTransport) Manifest(ctx context.Context) (*Manifest, error) { return f.m, nil }

func (f *flakyTransport) Fetch(ctx context.Context, e Entry) ([]byte, error) {
	return f.fetch(f.fetches.Add(1), e)
}

func (f *flakyTransport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	return nil, fmt.Errorf("flakyTransport serves no blobs")
}

// TestSubscribeRefetchRecovers: an entry corrupted in flight is fetched
// again, and the second (clean) copy applies — one transient corruption
// costs a refetch, not the update.
func TestSubscribeRefetchRecovers(t *testing.T) {
	version := cvedb.Versions[0]
	dir, c, raw := publishOne(t, version)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	ft := &flakyTransport{m: m, fetch: func(n int64, e Entry) ([]byte, error) {
		if n == 1 {
			bad := append([]byte(nil), raw...)
			bad[10] ^= 0xFF
			return bad, nil
		}
		return raw, nil
	}}
	k, mgr := bootManager(t, version)
	applied, err := SyncOnce(context.Background(), ClientConfig{Transport: ft}, mgr, 0)
	if err != nil || len(applied) != 1 {
		t.Fatalf("subscribe: %d applied, err=%v", len(applied), err)
	}
	if n := ft.fetches.Load(); n != 2 {
		t.Errorf("fetched %d times, want 2 (corrupt then clean)", n)
	}
	if got := runProbe(t, k, c); got != c.Probe.FixedResult {
		t.Errorf("probe = %d, want fixed %d", got, c.Probe.FixedResult)
	}
}

// TestSubscribeUnreachableMidway: the channel vanishing between entries
// leaves the machine at the position it reached, reported precisely.
func TestSubscribeUnreachableMidway(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)[:2]
	for i, c := range cves {
		if _, err := pub.Publish(fmt.Sprintf("u%d", i), c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewDirTransport(dir)
	ft := &flakyTransport{m: m, fetch: func(n int64, e Entry) ([]byte, error) {
		if e.Name == "u1" {
			return nil, fmt.Errorf("connection refused")
		}
		return inner.Fetch(context.Background(), e)
	}}
	k, mgr := bootManager(t, version)
	applied, err := SyncOnce(context.Background(), ClientConfig{Transport: ft}, mgr, 0)
	if len(applied) != 1 {
		t.Fatalf("applied %d updates before the outage, want 1", len(applied))
	}
	pe, ok := IsPosition(err)
	if !ok || pe.Position != 1 || pe.Entry != "u1" {
		t.Fatalf("err=%v, want PositionError at 1 on u1", err)
	}
	// Clean prefix: the first fix is live, the second is not.
	if got := runProbe(t, k, cves[0]); got != cves[0].Probe.FixedResult {
		t.Errorf("u0 probe = %d, want fixed %d", got, cves[0].Probe.FixedResult)
	}
	if got := runProbe(t, k, cves[1]); got != cves[1].Probe.VulnResult {
		t.Errorf("u1 probe = %d, want still-vulnerable %d", got, cves[1].Probe.VulnResult)
	}
	// Resuming from the reported position finishes the job.
	if more, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, mgr, pe.Position); err != nil || len(more) != 1 {
		t.Fatalf("resume from position %d: %d applied, err=%v", pe.Position, len(more), err)
	}
	if got := runProbe(t, k, cves[1]); got != cves[1].Probe.FixedResult {
		t.Errorf("after resume, u1 probe = %d, want fixed %d", got, cves[1].Probe.FixedResult)
	}
}

// TestHTTPTransportRetriesServerErrors: transient 5xx responses are
// retried with backoff until they clear; permanent 4xx responses are not
// retried at all.
func TestHTTPTransportRetriesServerErrors(t *testing.T) {
	dir, _, raw := publishOne(t, cvedb.Versions[0])
	inner := NewServer(dir)
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reqs.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTPTransport(srv.URL, HTTPOptions{Timeout: 5 * time.Second, MaxRetries: 4, Backoff: time.Millisecond, Seed: 1})
	m, err := tr.Manifest(context.Background())
	if err != nil {
		t.Fatalf("manifest through flaky server: %v", err)
	}
	if reqs.Load() != 3 {
		t.Errorf("%d requests to clear 2 faults, want 3", reqs.Load())
	}
	b, err := tr.Fetch(context.Background(), m.Updates[0])
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(b, raw) {
		t.Error("fetched bytes differ from published tarball")
	}

	// 404s are permanent: exactly one request, immediate error.
	reqs.Store(100)
	if _, err := tr.Fetch(context.Background(), Entry{Name: "ghost", File: "ghost.tar", Size: 10}); err == nil {
		t.Error("fetch of an unknown file succeeded")
	}
	if n := reqs.Load(); n != 101 {
		t.Errorf("404 fetch made %d requests, want 1 (no retries)", n-100)
	}
}

// TestHTTPTransportGivesUpAfterMaxRetries: a dead server costs exactly
// MaxRetries+1 attempts, then a clear error — no infinite retry loop.
func TestHTTPTransportGivesUpAfterMaxRetries(t *testing.T) {
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, HTTPOptions{Timeout: time.Second, MaxRetries: 2, Backoff: time.Millisecond, Seed: 1})
	if _, err := tr.Manifest(context.Background()); err == nil {
		t.Error("manifest from a dead server succeeded")
	}
	if reqs.Load() != 3 {
		t.Errorf("%d attempts, want MaxRetries+1 = 3", reqs.Load())
	}
}

// TestHTTPTransportResumesTruncatedBody: a download cut mid-body resumes
// from the last received byte with a Range request instead of refetching
// the whole tarball.
func TestHTTPTransportResumesTruncatedBody(t *testing.T) {
	dir, _, raw := publishOne(t, cvedb.Versions[0])
	inner := NewServer(dir)
	cut := len(raw) / 3
	var tarReqs atomic.Int64
	var resumeFrom atomic.Int64
	resumeFrom.Store(-1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/updates/") {
			inner.ServeHTTP(w, r)
			return
		}
		n := tarReqs.Add(1)
		if n == 1 {
			// Promise the full body, deliver a third: a cut connection.
			w.Header().Set("Content-Length", fmt.Sprint(len(raw)))
			w.WriteHeader(http.StatusOK)
			w.Write(raw[:cut])
			return
		}
		if rg := r.Header.Get("Range"); rg != "" {
			var off int64
			fmt.Sscanf(rg, "bytes=%d-", &off)
			resumeFrom.Store(off)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTPTransport(srv.URL, HTTPOptions{Timeout: 5 * time.Second, MaxRetries: 4, Backoff: time.Millisecond, Seed: 1})
	m, err := tr.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Fetch(context.Background(), m.Updates[0])
	if err != nil {
		t.Fatalf("fetch through truncation: %v", err)
	}
	if !bytes.Equal(b, raw) {
		t.Error("resumed download is not byte-identical to the tarball")
	}
	if tarReqs.Load() != 2 {
		t.Errorf("%d tarball requests, want 2 (truncated then resumed)", tarReqs.Load())
	}
	if got := resumeFrom.Load(); got != int64(cut) {
		t.Errorf("resume requested from byte %d, want %d (the truncation point)", got, cut)
	}
}

// TestServerRoutes: the manifest, name-addressed, and digest-addressed
// routes serve exactly the published bytes; anything else is a 404. An
// update published while the server runs is served by the very next
// requests, with no restart.
func TestServerRoutes(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, raw := publishOne(t, version)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(dir))
	defer srv.Close()
	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	if code, b := get("/channel.json"); code != 200 {
		t.Errorf("manifest: %d", code)
	} else if _, err := DecodeManifest(b); err != nil {
		t.Errorf("served manifest does not verify: %v", err)
	}
	e := m.Updates[0]
	if code, b := get("/updates/" + e.File); code != 200 || !bytes.Equal(b, raw) {
		t.Errorf("by name: %d, %d bytes", code, len(b))
	}
	if code, b := get("/blob/" + e.Sha256); code != 200 || !bytes.Equal(b, raw) {
		t.Errorf("by digest: %d, %d bytes", code, len(b))
	}
	for _, path := range []string{"/updates/../channel.json", "/updates/nope.tar", "/blob/feed", "/etc/passwd"} {
		if code, _ := get(path); code != 404 {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}

	// Append one more update through a second publisher while the same
	// server keeps running.
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	c := cvedb.ForVersion(version)[1]
	if _, err := pub.Publish("u1", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}
	code, b := get("/channel.json")
	if code != 200 {
		t.Fatalf("manifest after append: %d", code)
	}
	m2, err := DecodeManifest(b)
	if err != nil {
		t.Fatalf("manifest after append does not verify: %v", err)
	}
	if len(m2.Updates) != 2 {
		t.Fatalf("manifest after append names %d updates, want 2", len(m2.Updates))
	}
	e = m2.Updates[1]
	raw, err = os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		t.Fatal(err)
	}
	if code, b := get("/updates/" + e.File); code != 200 || !bytes.Equal(b, raw) {
		t.Errorf("appended update by name: %d, %d bytes", code, len(b))
	}
	if code, b := get("/blob/" + e.Sha256); code != 200 || !bytes.Equal(b, raw) {
		t.Errorf("appended update by digest: %d, %d bytes", code, len(b))
	}
	if d := m2.DeltaFor(e.Sha256); d == nil {
		t.Error("appended update has no delta")
	} else if code, b := get("/blob/" + d.Sha256); code != 200 || int64(len(b)) != d.Size {
		t.Errorf("appended update's delta: %d, %d bytes", code, len(b))
	}
}
