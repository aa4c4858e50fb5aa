package main

// subscribe-prebuilt: one brand-new machine at a time (srctree's build
// store is process-wide, so machines cannot overlap). Each machine's
// release is drawn by seed. It installs its channel's base prebuilt set
// over loopback HTTP from a signed channel with a pinned key, boots from
// the installed image, and syncs to head through a channel.Client with a
// real state dir. One machine in four, chosen by seed, is killed at a
// seeded hit of channel.journal.append.synced and restarted over its
// state dir. Compile does no work here (a gate checks it); manifest and
// blob serving, client decode and verify, delta decode, the apply journal
// and 16 applies per machine do.
//
// The never-killed machines, the ones an operation times, keep their apply
// journal in the state dir and their blobs in memory. The victims keep
// their blobs in the state dir's disk cache too (DirBlobCache), so the
// restart reads back what the dead process wrote. A disk blob put is an
// fsync, about 90 of them per machine, and on a shared virtual disk fsync
// time drifts 2.5x from second to second: timed, it would make the
// operation measure the disk. The disk cache's cost shows in the
// per-layer blobcache metrics and in the victims' recovery time instead.

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// killLabel is the crash point victims die at: a journal append that has
// reached the disk.
const killLabel = "channel.journal.append.synced"

// machinePlan is one machine of the seeded sequence.
type machinePlan struct {
	release string
	kill    int // hit of killLabel the machine dies at; 0 = never
}

type subscribeFx struct {
	c      *config
	work   string
	verify channel.VerifyKey
	srv    map[string]*server
	head   map[string]int
	ref    map[string][32]byte // release -> never-crashed machine's memory hash
	rng    *rand.Rand
	plans  []machinePlan
	// fault is the injected transport fault; set after set-up, so the
	// reference machines never see it.
	fault func(path string) bool
}

// signKey derives the channel signing key from the seed, so the signed
// manifests, and with them every byte on the wire, repeat per seed.
func signKey(seed int64) channel.SignKey {
	s := sha256.Sum256([]byte(fmt.Sprintf("perfbench-%d", seed)))
	return channel.SignKey(ed25519.NewKeyFromSeed(s[:]))
}

// publishRelease publishes every CVE of release into dir.
func publishRelease(dir, release string, key channel.SignKey) error {
	pub, err := channel.NewPublisher(dir, cvedb.Tree(release))
	if err != nil {
		return err
	}
	pub.SignKey = key
	for _, c := range cvedb.ForVersion(release) {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			return fmt.Errorf("publishing %s: %w", c.ID, err)
		}
	}
	return nil
}

func setupSubscribe(c *config) (fixture, error) {
	srctree.SetStore(store.MustNew(store.Options{}))
	work, err := os.MkdirTemp(c.work, "subscribe-")
	if err != nil {
		return nil, err
	}
	key := signKey(c.seed)
	fx := &subscribeFx{
		c: c, work: work,
		verify: channel.VerifyKey(ed25519.PrivateKey(key).Public().(ed25519.PublicKey)),
		srv:    map[string]*server{}, head: map[string]int{}, ref: map[string][32]byte{},
	}
	for _, rel := range cvedb.Versions {
		dir := filepath.Join(work, "channel-"+rel)
		if err := publishRelease(dir, rel, key); err != nil {
			fx.close()
			return nil, err
		}
		s, err := startServer(channel.NewServer(dir))
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.srv[rel] = s
		fx.head[rel] = len(cvedb.ForVersion(rel))
	}
	// The reference machines: one never-crashed machine per release, whose
	// memory every restarted machine of that release must reproduce.
	scratch := newMeter(nil)
	for _, rel := range cvedb.Versions {
		dir, err := os.MkdirTemp(work, "ref-")
		if err != nil {
			fx.close()
			return nil, err
		}
		k, pos, _, err := fx.life(scratch, nil, rel, dir, false, nil)
		if err == nil && pos != fx.head[rel] {
			err = fmt.Errorf("reference machine reached %d of %d", pos, fx.head[rel])
		}
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("reference %s: %w", rel, err)
		}
		fx.ref[rel] = memHash(k)
		os.RemoveAll(dir)
	}
	fx.fault = c.fault
	return fx, nil
}

func (fx *subscribeFx) close() {
	for _, s := range fx.srv {
		s.close()
	}
	os.RemoveAll(fx.work)
}

// plan returns machine i of the seeded sequence: every four machines
// cover the four releases in a seeded order, and one of them, with a
// seeded kill hit, is a victim.
func (fx *subscribeFx) plan(i int) machinePlan {
	if fx.rng == nil {
		fx.rng = rand.New(rand.NewSource(fx.c.seed))
	}
	for len(fx.plans) <= i {
		n := len(cvedb.Versions)
		round := make([]machinePlan, n)
		for j, r := range fx.rng.Perm(n) {
			round[j].release = cvedb.Versions[r]
		}
		victim := fx.rng.Intn(n)
		// A sync appends a begin and a commit record per update.
		round[victim].kill = 1 + fx.rng.Intn(2*fx.head[round[victim].release])
		fx.plans = append(fx.plans, round...)
	}
	return fx.plans[i]
}

// memHash fingerprints a kernel's whole memory, the way the crash-point
// sweep compares a recovered machine with a never-crashed one. Take it
// before probes run: they write memory.
func memHash(k *kernel.Kernel) [32]byte {
	k.Lock()
	defer k.Unlock()
	return sha256.Sum256(k.LockedMem().Bytes())
}

func (fx *subscribeFx) op(m *meter, i int) {
	p := fx.plan(i)
	m.attempt()
	for _, s := range fx.srv {
		s.tap.m.Store(m)
	}
	root := m.root("subscribe-prebuilt.machine", telemetry.A("release", p.release))
	defer root.End()
	if err := fx.machine(m, root, p); err != nil {
		m.fail("machine %d (%s, kill %d): %v", i, p.release, p.kill, err)
		return
	}
	m.done()
}

// machine runs one machine of the sequence and checks its gates.
func (fx *subscribeFx) machine(m *meter, root *telemetry.Span, p machinePlan) error {
	stateDir, err := os.MkdirTemp(fx.work, "machine-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	var kill crashpoint.Hook
	if p.kill > 0 {
		kill = crashpoint.NewPlan(killLabel, p.kill).Hook()
	}
	t0 := time.Now()
	wire0 := m.total("transport.bytes")
	k, pos, death, err := fx.life(m, root, p.release, stateDir, p.kill > 0, kill)
	if err != nil {
		return err
	}
	head := fx.head[p.release]
	if p.kill == 0 {
		if death != nil {
			return fmt.Errorf("unscheduled death at %s", death.Label)
		}
		d := time.Since(t0)
		m.sample("op", ms(d))
		m.timed(1, d)
		m.sample("transport.wire_bytes_per_machine/"+p.release, m.total("transport.bytes")-wire0)
	} else {
		if death == nil {
			return fmt.Errorf("kill at hit %d of %s never fired", p.kill, killLabel)
		}
		// The restart: a new process over the same state dir.
		sp := root.Child("journal.recover")
		t1 := time.Now()
		k, pos, death, err = fx.life(m, sp, p.release, stateDir, true, nil)
		sp.End()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if death != nil {
			return fmt.Errorf("restart died at %s", death.Label)
		}
		m.sample("journal.recover_ms", msSince(t1))
		if pos == head && memHash(k) != fx.ref[p.release] {
			return fmt.Errorf("restarted kernel memory differs from a never-crashed %s machine", p.release)
		}
	}
	if pos != head {
		return fmt.Errorf("reached position %d of %d", pos, head)
	}
	m.add("server.manifest_reqs_per_update/den", float64(head))
	for _, cve := range cvedb.ForVersion(p.release) {
		if err := expectProbe(k, cve, cve.Probe.FixedResult); err != nil {
			return fmt.Errorf("%s after sync: %w", cve.ID, err)
		}
	}
	return nil
}

// life is one process lifetime of a machine: an empty build store, a
// client over stateDir, the base prebuilt install, a boot from the
// installed image, journal recovery and a sync to head. The blob cache is
// stateDir's disk cache when diskBlobs is set, else in memory. kill, when
// set, receives every crash point; a death it raises ends the life early.
func (fx *subscribeFx) life(m *meter, root *telemetry.Span, rel, stateDir string, diskBlobs bool, kill crashpoint.Hook) (k *kernel.Kernel, pos int, death *crashpoint.Death, err error) {
	srctree.SetStore(store.MustNew(store.Options{}))
	c0 := srctree.Counters()
	at := &slot{}
	at.set(root)
	reg := telemetry.NewRegistry()
	tt := &transportTap{m: m, at: at, fault: fx.fault}
	defer tt.closeIdle()
	tr := channel.NewHTTPTransport(fx.srv[rel].url, channel.HTTPOptions{
		Client: tt.httpClient(), Seed: fx.c.seed, Registry: reg,
	})
	crash := &crashTap{m: m, at: at, kill: kill}
	var bc channel.BlobCache = channel.NewMemBlobCache()
	if diskBlobs {
		dc, err := channel.NewDirBlobCacheMax(filepath.Join(stateDir, "blob-cache"), channel.DefaultBlobCacheBytes)
		if err != nil {
			return nil, 0, nil, err
		}
		dc.SetCrashHook(crash.hook)
		bc = dc
	}
	cl, err := channel.NewClient(channel.ClientConfig{
		Name:      "perfbench",
		Transport: tr,
		StateDir:  stateDir,
		Crash:     crash.hook,
		Blobs:     &blobTap{BlobCache: bc, m: m, at: at},
		Registry:  reg,
		VerifyKey: fx.verify,
	})
	if err != nil {
		return nil, 0, nil, err
	}
	defer cl.Close()
	ctx := context.Background()
	// step runs one layer call under a span that the taps nest beneath.
	step := func(name string, f func() error) error {
		sp := root.Child(name)
		at.set(sp)
		err := f()
		at.set(root)
		sp.End()
		return err
	}
	death = crashpoint.Catch(func() {
		t := time.Now()
		err = step("channel.install", func() error {
			_, st, err := cl.InstallBase(ctx)
			m.add("install.installed", float64(st.Installed))
			m.add("install.hits", float64(st.Hits))
			m.add("install.failed", float64(st.Failed))
			return err
		})
		m.add("install.ms", msSince(t))
		if err != nil {
			err = fmt.Errorf("install: %w", err)
			return
		}
		t = time.Now()
		err = step("kernel.boot", func() error {
			k, err = bootRelease(rel)
			return err
		})
		m.sample("kernel.boot_ms", msSince(t))
		if err != nil {
			return
		}
		mgr := core.NewManager(k)
		if err = step("client.restore", func() error {
			_, err := cl.RestoreMachine(ctx, mgr, 0)
			return err
		}); err != nil {
			err = fmt.Errorf("restore: %w", err)
			return
		}
		outside := []string{"transport.wait_ms", "blobcache.put_ms", "journal.append_ms", "sync.apply_ms"}
		before := m.total(outside...)
		crash.beginSync()
		t = time.Now()
		err = step("client.sync", func() error {
			_, err := cl.Sync(ctx)
			return err
		})
		syncMS := msSince(t)
		m.add("client.sync_ms", syncMS)
		m.add("client.self_ms", syncMS-(m.total(outside...)-before))
		for _, a := range mgr.Applied() {
			recordApplied(m, a)
		}
		if err != nil {
			err = fmt.Errorf("sync: %w", err)
		}
	})
	pos = cl.Position()
	s := reg.Snapshot()
	m.add("delta.applied", float64(s.Counter("gosplice_channel_delta_applied_total")))
	m.add("delta.fallbacks", float64(s.Counter(channel.MetricDeltaFallback)))
	m.add("delta.useful_ratio/num", float64(s.Counter("gosplice_channel_delta_applied_total")))
	m.add("delta.useful_ratio/den", float64(s.Counter("gosplice_channel_delta_applied_total")+s.Counter(channel.MetricDeltaFallback)))
	m.add("transport.retries", float64(s.Counter("gosplice_channel_client_retries_total")))
	m.add("journal.replays", float64(s.Counter(channel.MetricJournalReplays)))
	addBuildCounters(m, c0)
	if err == nil && death == nil {
		if n := srctree.Counters().UnitMisses - c0.UnitMisses; n != 0 {
			err = fmt.Errorf("compiled %d units; a prebuilt subscribe compiles none", n)
		}
	}
	return k, pos, death, err
}
