// Prebuilt artifact and binary delta tests: the no-compiler subscribe
// smoke `make check` runs (-run NoCompileWarmStore), what a prebuilt
// channel holds, and the degradation matrix — corrupt artifact blobs,
// corrupt deltas, and missing delta bases all fall back (to source
// builds or full fetches) without losing a single update.
package channel_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/faultinject"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// publishRelease publishes every one of version's CVE fixes into a fresh
// channel directory, returning it and the published tarball bytes by
// entry name.
func publishRelease(t *testing.T, version string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	published := map[string][]byte{}
	for _, c := range cvedb.ForVersion(version) {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatalf("publish %s: %v", c.ID, err)
		}
	}
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Updates {
		b, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		published[e.Name] = b
	}
	return dir, published
}

// bootCached boots the release the way a subscriber machine does
// (simstate.Replay's path): through the store's cached build and link.
func bootCached(t *testing.T, version string) (*kernel.Kernel, *core.Manager) {
	t.Helper()
	br, err := srctree.BuildCached(cvedb.Tree(version), codegen.KernelBuild())
	if err != nil {
		t.Fatal(err)
	}
	im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.BootImage(br, im, 0)
	if err != nil {
		t.Fatal(err)
	}
	return k, core.NewManager(k)
}

// TestSubscribeNoCompileWarmStore is the acceptance smoke: across every
// release, a subscriber whose build store was warmed purely from the
// channel's prebuilt base set (Client.InstallBase) boots and applies the
// release's whole CVE series with zero unit compilations and zero image
// links.
func TestSubscribeNoCompileWarmStore(t *testing.T) {
	for _, version := range cvedb.Versions {
		dir, published := publishRelease(t, version)
		cves := cvedb.ForVersion(version)
		var got [][]byte
		var names []string
		cl, err := channel.NewClient(channel.ClientConfig{
			Transport: channel.NewDirTransport(dir),
			OnApplied: func(e channel.Entry, b []byte) error {
				got = append(got, append([]byte(nil), b...))
				names = append(names, e.Name)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		// The subscriber machine starts from a store that has never seen
		// a compiler run — everything it knows came over the channel.
		prev := srctree.SetStore(store.MustNew(store.Options{}))
		m, st, err := cl.InstallBase(context.Background())
		if err != nil || st.Failed != 0 || st.Installed != len(m.Prebuilt) {
			srctree.SetStore(prev)
			t.Fatalf("%s: install over a clean transport: %+v, %v", version, st, err)
		}

		before := srctree.Counters()
		k, mgr := bootCached(t, version)
		cl.Bind(mgr, 0)
		applied, err := cl.Sync(context.Background())
		after := srctree.Counters()
		srctree.SetStore(prev)
		cl.Close()
		if err != nil {
			t.Fatalf("%s: sync: %v", version, err)
		}
		if len(applied) != len(cves) || len(mgr.Applied()) != len(cves) {
			t.Fatalf("%s: applied %d of %d updates", version, len(applied), len(cves))
		}
		if n := after.UnitMisses - before.UnitMisses; n != 0 {
			t.Errorf("%s: warm subscriber compiled %d units, want 0", version, n)
		}
		if n := after.LinkMisses - before.LinkMisses; n != 0 {
			t.Errorf("%s: warm subscriber linked %d images, want 0", version, n)
		}
		for i, b := range got {
			if !bytes.Equal(b, published[names[i]]) {
				t.Errorf("%s: %s applied from bytes differing from the published tarball", version, names[i])
			}
		}
		// The machine is genuinely at the head: last CVE's probe is fixed.
		c := cves[len(cves)-1]
		for _, s := range k.Syms.Lookup(c.Probe.Entry) {
			if s.Func && s.Module == "" {
				task, err := k.SpawnAt("probe", s.Addr, c.Probe.UID, c.Probe.Args...)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.RunUntilExit(task, 50_000_000); err != nil {
					t.Fatal(err)
				}
				if task.ExitCode != c.Probe.FixedResult {
					t.Errorf("%s: %s probe = %d at head, want %d", version, c.ID, task.ExitCode, c.Probe.FixedResult)
				}
			}
		}
	}
}

// TestInstallPrebuiltDegradesToSourceBuild: base-set blobs corrupted and
// erroring in flight are skipped — the machine compiles those units from
// source and the sync still reaches the channel head.
func TestInstallPrebuiltDegradesToSourceBuild(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _ := publishRelease(t, version)
	// Plan ops are 1-based: op 1 is InstallBase's manifest fetch, the
	// rest its FetchBlobs. Corrupt the first blob, error the second,
	// truncate the third. All three artifacts must fail closed.
	plan := faultinject.New(
		faultinject.Fault{Op: 2, Kind: faultinject.FlipBit, Offset: 10, Bit: 3},
		faultinject.Fault{Op: 3, Kind: faultinject.Error},
		faultinject.Fault{Op: 4, Kind: faultinject.Truncate, Offset: 5},
	)
	cl, err := channel.NewClient(channel.ClientConfig{
		Transport: faultinject.WrapTransport(channel.NewDirTransport(dir), plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	prev := srctree.SetStore(store.MustNew(store.Options{}))
	defer srctree.SetStore(prev)
	_, st, err := cl.InstallBase(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 3 {
		t.Fatalf("3 faulted artifact fetches, %d failures recorded (%+v)", st.Failed, st)
	}
	if st.Installed == 0 {
		t.Fatalf("no artifacts installed past the faults (%+v)", st)
	}

	// Boot compiles exactly what failed to arrive, nothing more — and the
	// sync reaches the head.
	before := srctree.Counters()
	_, mgr := bootCached(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.ClientConfig{Transport: channel.NewDirTransport(dir)}, mgr, 0)
	after := srctree.Counters()
	if err != nil {
		t.Fatalf("sync after degraded install: %v", err)
	}
	if want := len(cvedb.ForVersion(version)); len(applied) != want {
		t.Fatalf("applied %d of %d", len(applied), want)
	}
	if n := after.UnitMisses - before.UnitMisses + after.LinkMisses - before.LinkMisses; n == 0 || n > 3 {
		t.Errorf("source fallback built %d artifacts, want 1..3 (exactly the failed ones)", n)
	}
}

// TestPrebuiltChannelHoldsWhatSubscribersInstall pins what a prebuilt
// channel publishes: the base set and one delta per tarball, nothing a
// subscriber does not install. blobs/ holds exactly those, every delta
// reconstructs a published tarball from the one before it, and no
// publish after the first links a kernel image.
func TestPrebuiltChannelHoldsWhatSubscribersInstall(t *testing.T) {
	version := cvedb.Versions[0]
	cves := cvedb.ForVersion(version)[:4]
	// A fresh store, so a link the publisher does shows as a miss rather
	// than hitting an image an earlier test left behind.
	prev := srctree.SetStore(store.MustNew(store.Options{}))
	defer srctree.SetStore(prev)
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cves {
		before := srctree.Counters()
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
		if n := srctree.Counters().LinkMisses - before.LinkMisses; i > 0 && n != 0 {
			t.Errorf("publish %d linked %d kernel images, want 0", i+1, n)
		}
	}
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Prebuilt) == 0 || len(m.Deltas) != len(cves)-1 {
		t.Fatalf("%d base artifacts and %d deltas for %d updates", len(m.Prebuilt), len(m.Deltas), len(cves))
	}
	blobs, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(m.Prebuilt) + len(m.Deltas); len(blobs) != want {
		t.Errorf("blobs/ holds %d files, want %d base artifacts + %d deltas", len(blobs), len(m.Prebuilt), len(m.Deltas))
	}
	pos := map[string]int{}
	for j, e := range m.Updates {
		pos[e.Sha256] = j
	}
	for _, d := range m.Deltas {
		j, ok := pos[d.ResultSha256]
		if !ok {
			t.Errorf("delta %.12s reconstructs %.12s, which is no published tarball", d.Sha256, d.ResultSha256)
		} else if j == 0 || m.Updates[j-1].Sha256 != d.BaseSha256 {
			t.Errorf("delta onto position %d does not base on the tarball before it", j+1)
		}
	}
}

// TestSubscribeDeltaCorruptFallsBackFull: a delta blob corrupted in
// flight is detected before any reconstructed byte is trusted; the entry
// is fetched whole instead, and later entries still use their deltas.
func TestSubscribeDeltaCorruptFallsBackFull(t *testing.T) {
	version := cvedb.Versions[1]
	dir, published := publishRelease(t, version)
	reg := telemetry.Default()
	before := reg.Snapshot()

	// Sync op sequence (1-based): Manifest=1, entry0 Fetch=2, entry1
	// delta FetchBlob=3 — corrupt that one.
	plan := faultinject.New(faultinject.Fault{Op: 3, Kind: faultinject.FlipBit, Offset: 30, Bit: 6})
	tr := faultinject.WrapTransport(channel.NewDirTransport(dir), plan)
	_, mgr := bootRelease(t, version)
	var got [][]byte
	var names []string
	applied, err := channel.SyncOnce(context.Background(), channel.ClientConfig{
		Transport: tr,
		OnApplied: func(e channel.Entry, b []byte) error {
			got = append(got, append([]byte(nil), b...))
			names = append(names, e.Name)
			return nil
		},
	}, mgr, 0)
	if err != nil {
		t.Fatalf("subscribe under delta corruption: %v", err)
	}
	if want := len(cvedb.ForVersion(version)); len(applied) != want {
		t.Fatalf("applied %d of %d", len(applied), want)
	}
	for i, b := range got {
		if !bytes.Equal(b, published[names[i]]) {
			t.Fatalf("%s applied from bytes differing from the published tarball", names[i])
		}
	}
	after := reg.Snapshot()
	delta := func(id string) uint64 { return after.Counter(id) - before.Counter(id) }
	if delta("gosplice_channel_delta_fallback_full_total") == 0 {
		t.Error("corrupt delta did not count a full-fetch fallback")
	}
	if delta("gosplice_channel_delta_applied_total") == 0 {
		t.Error("no later entry reconstructed from a delta")
	}
	if plan.Stats().Injected(faultinject.FlipBit) == 0 {
		t.Error("the corrupting fault never fired — the test proved nothing")
	}
}

// TestSubscribeMissingBaseFallsBackFull: a subscriber with no delta
// bases at all (nothing cached) silently fetches everything whole.
func TestSubscribeMissingBaseFallsBackFull(t *testing.T) {
	version := cvedb.Versions[2]
	dir, _ := publishRelease(t, version)
	reg := telemetry.Default()
	before := reg.Snapshot()
	_, mgr := bootRelease(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.ClientConfig{
		Transport: channel.NewDirTransport(dir),
		Blobs:     nullBlobCache{},
	}, mgr, 0)
	if err != nil {
		t.Fatalf("subscribe with no delta bases: %v", err)
	}
	if want := len(cvedb.ForVersion(version)); len(applied) != want {
		t.Fatalf("applied %d of %d", len(applied), want)
	}
	after := reg.Snapshot()
	delta := func(id string) uint64 { return after.Counter(id) - before.Counter(id) }
	if delta("gosplice_channel_delta_applied_total") != 0 {
		t.Error("a delta applied with no base to apply it against")
	}
	if delta("gosplice_channel_delta_fallback_full_total") == 0 {
		t.Error("missing bases never counted a fallback")
	}
}

// TestPublisherResumeContinuesDeltas: a publisher reopened over an
// existing prebuilt channel keeps the delta chain and the base set
// consistent — the new position deltas against the last old one, and
// the base set is not exported again.
func TestPublisherResumeContinuesDeltas(t *testing.T) {
	version := cvedb.Versions[3]
	cves := cvedb.ForVersion(version)
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cves[:2] {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}

	pub2, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub2.Publish("ksplice-"+cves[2].ID, cves[2].ID, cves[2].Patch()); err != nil {
		t.Fatal(err)
	}
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Updates) != 3 {
		t.Fatalf("resumed channel has %d updates, want 3", len(m.Updates))
	}
	// The position-3 tarball must delta against position 2 across the
	// publisher restart.
	if d := m.DeltaFor(m.Updates[2].Sha256); d == nil {
		t.Error("no tarball delta advertised across the publisher restart")
	} else if d.BaseSha256 != m.Updates[1].Sha256 {
		t.Error("post-resume tarball delta does not base on the previous position")
	}
	// No store key is advertised twice.
	seen := map[string]int{}
	for _, a := range m.Prebuilt {
		seen[a.StoreKey]++
	}
	for key, n := range seen {
		if n > 1 {
			t.Errorf("store key %s advertised %d times", key, n)
		}
	}
	subscribeHead(t, dir, version, 3)
}

// subscribeHead asserts a clean dir subscribe applies exactly want
// updates.
func subscribeHead(t *testing.T, dir, version string, want int) {
	t.Helper()
	_, mgr := bootRelease(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.ClientConfig{Transport: channel.NewDirTransport(dir)}, mgr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != want {
		t.Fatalf("subscribed %d of %d", len(applied), want)
	}
}

// bootRelease boots a vulnerable machine for version (uncached build is
// fine here; these tests assert delta behaviour, not compile counts).
func bootRelease(t *testing.T, version string) (*kernel.Kernel, *core.Manager) {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	return k, core.NewManager(k)
}
