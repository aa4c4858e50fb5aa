package channel

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// TestPublishAndSubscribe builds a channel from one release's corpus
// fixes and subscribes a freshly booted machine to it — the paper's
// section 8 scenario: all the release's security reboots eliminated by
// one subscription.
func TestPublishAndSubscribe(t *testing.T) {
	version := cvedb.Versions[2]
	dir := t.TempDir()
	tree := cvedb.Tree(version)

	pub, err := NewPublisher(dir, tree)
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)
	if len(cves) < 10 {
		t.Fatalf("version has only %d CVEs", len(cves))
	}
	for _, c := range cves {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatalf("publish %s: %v", c.ID, err)
		}
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Updates) != len(cves) {
		t.Fatalf("manifest has %d updates", len(m.Updates))
	}

	// Subscribe a vulnerable machine: every probe flips.
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	applied, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir), Apply: core.ApplyOptions{MaxAttempts: 6}}, mgr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(cves) {
		t.Fatalf("applied %d of %d", len(applied), len(cves))
	}
	for _, c := range cves {
		got := runProbe(t, k, c)
		if got != c.Probe.FixedResult {
			t.Errorf("%s: probe = %d, want %d", c.ID, got, c.Probe.FixedResult)
		}
	}
	// Health check after the whole batch.
	if bad, err := k.Call("stress_main", 100); err != nil || bad != 0 {
		t.Errorf("stress after subscription: %d, %v", bad, err)
	}

	// A machine already at position N gets nothing new.
	more, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, mgr, len(cves))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 0 {
		t.Errorf("re-subscription applied %d updates", len(more))
	}
}

func runProbe(t *testing.T, k *kernel.Kernel, c *cvedb.CVE) int64 {
	t.Helper()
	var addr uint32
	for _, s := range k.Syms.Lookup(c.Probe.Entry) {
		if s.Func && s.Module == "" {
			addr = s.Addr
		}
	}
	if addr == 0 {
		t.Fatalf("%s: no probe symbol", c.ID)
	}
	task, err := k.SpawnAt("probe", addr, c.Probe.UID, c.Probe.Args...)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(task, 50_000_000); err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	code := task.ExitCode
	k.ReapExited()
	return code
}

// TestPublisherResume reopens a channel directory and continues where it
// left off, with the accumulated previously-patched source.
func TestPublisherResume(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	cves := cvedb.ForVersion(version)

	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("u0", cves[0].ID, cves[0].Patch()); err != nil {
		t.Fatal(err)
	}

	// A second publisher process resumes the same directory.
	pub2, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub2.Publish("u1", cves[1].ID, cves[1].Patch()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Updates) != 2 || m.Updates[0].Name != "u0" || m.Updates[1].Name != "u1" {
		t.Errorf("manifest: %+v", m.Updates)
	}

	// Wrong-release resume is rejected.
	if _, err := NewPublisher(dir, cvedb.Tree(cvedb.Versions[1])); err == nil {
		t.Error("cross-release resume accepted")
	}
}

// TestPublisherRefusesCorruptManifest: a manifest that exists but fails
// to verify is an error, not a fresh channel — republishing over it would
// rewrite the channel with fewer updates and strand every machine past
// them. The corrupt manifest is left exactly as it was.
func TestPublisherRefusesCorruptManifest(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cvedb.ForVersion(version)[:3] {
		if _, err := pub.Publish(fmt.Sprintf("u%d", i), c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPublisher(dir, cvedb.Tree(version)); err == nil {
		t.Fatal("publisher opened a channel whose manifest fails verification")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, b) {
		t.Error("refusing the channel changed its manifest")
	}
}

func TestSubscribeErrors(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	c := cvedb.ForVersion(version)[0]
	if _, err := pub.Publish("u0", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}

	// Wrong release.
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(cvedb.Versions[1])})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, core.NewManager(k), 0); err == nil {
		t.Error("cross-release subscription accepted")
	}
	// Impossible position.
	k2, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(dir)}, core.NewManager(k2), 5); err == nil {
		t.Error("position beyond channel accepted")
	}
	// Missing channel.
	if _, err := SyncOnce(context.Background(), ClientConfig{Transport: NewDirTransport(t.TempDir())}, core.NewManager(k2), 0); err == nil {
		t.Error("empty dir subscribed")
	}
}
