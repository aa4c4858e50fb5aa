package main

// publish-follow: writes beside reads. Each round publishes one release's
// 16 CVEs one at a time into a fresh signed channel, and after each
// Publish one follower machine syncs over HTTP against the same server,
// with an in-memory blob cache, until it has applied the new entry.
// Releases come in a seeded order. This is the only workload where the
// manifest changes between the reads of one client: a manifest cache that
// serves stale data (the follower needs more polls, or never gets there)
// or slows the publisher shows here.
//
// Publisher and follower take turns instead of running side by side: on a
// two-CPU machine a follower polling back to back beside a compiling
// publisher makes every figure measure the scheduler.
//
// Each round's publisher starts from what a long-running publisher
// already holds: a fresh build store warmed, before anything is timed,
// with the unpatched release's builds and its linked boot kernel. Every
// Publish then compiles the units its patch changes, as a real publish
// does. The follower shares the publisher's process-wide build store and
// compiles nothing.
//
// An operation is one update of an existing channel, from the start of
// its Publish to the follower having applied it. A round's first publish
// also creates the channel (it writes the release's whole prebuilt
// artifact set), so it is timed on its own as channel creation; its
// update is still followed and checked. Throughput is taken over the
// operations' own time.

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// followTimeout bounds one round: a follower that has not reached the
// head this long after the publisher finished has failed.
const followTimeout = 30 * time.Second

// swapHandler serves whichever channel the current round publishes into.
type swapHandler struct {
	cur atomic.Pointer[channel.Server]
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.cur.Load().ServeHTTP(w, r)
}

type publishFx struct {
	c      *config
	work   string
	key    channel.SignKey
	verify channel.VerifyKey
	h      *swapHandler
	srv    *server
	tmpl   map[string]*kernel.Kernel
	order  []string
}

func setupPublish(c *config) (fixture, error) {
	srctree.SetStore(store.MustNew(store.Options{}))
	work, err := os.MkdirTemp(c.work, "publish-")
	if err != nil {
		return nil, err
	}
	key := signKey(c.seed)
	fx := &publishFx{
		c: c, work: work, key: key,
		verify: channel.VerifyKey(ed25519.PrivateKey(key).Public().(ed25519.PublicKey)),
		h:      &swapHandler{}, tmpl: map[string]*kernel.Kernel{},
	}
	// The follower's kernels are clones of these, booted once.
	for _, rel := range cvedb.Versions {
		k, err := bootRelease(rel)
		if err != nil {
			os.RemoveAll(work)
			return nil, err
		}
		fx.tmpl[rel] = k
	}
	fx.h.cur.Store(channel.NewServer(work))
	if fx.srv, err = startServer(fx.h); err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	for len(fx.order) < 64 {
		for _, r := range rng.Perm(len(cvedb.Versions)) {
			fx.order = append(fx.order, cvedb.Versions[r])
		}
	}
	return fx, nil
}

func (fx *publishFx) close() {
	fx.srv.close()
	os.RemoveAll(fx.work)
}

// op runs round i: one release published entry by entry, the follower
// catching up after each. Every entry but the first is one operation.
func (fx *publishFx) op(m *meter, i int) {
	rel := fx.order[i%len(fx.order)]
	cves := cvedb.ForVersion(rel)
	for range cves[1:] {
		m.attempt()
	}
	fx.srv.tap.m.Store(m)
	root := m.root("publish-follow.round", telemetry.A("release", rel))
	defer root.End()
	if err := fx.round(m, root, rel, cves); err != nil {
		for range cves[1:] {
			m.fail("round %d (%s): %v", i, rel, err)
		}
	}
}

// round publishes rel's CVEs and follows each; it records the round's
// operations only when every gate passed.
func (fx *publishFx) round(m *meter, root *telemetry.Span, rel string, cves []*cvedb.CVE) error {
	// A fresh build store holding only the unpatched release and its
	// boot kernel, so no Publish finds its patch already compiled.
	srctree.SetStore(store.MustNew(store.Options{}))
	if _, err := srctree.BuildCached(cvedb.Tree(rel), codegen.KspliceBuild()); err != nil {
		return fmt.Errorf("building %s: %w", rel, err)
	}
	if _, _, err := linkRelease(rel); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(fx.work, "round-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pub, err := channel.NewPublisher(dir, cvedb.Tree(rel))
	if err != nil {
		return err
	}
	pub.SignKey = fx.key
	fx.h.cur.Store(channel.NewServer(dir))

	k, err := fx.tmpl[rel].Clone()
	if err != nil {
		return err
	}
	mgr := core.NewManager(k)
	var applied []string
	var appliedAt time.Time
	var manifests [][]byte
	at := &slot{}
	at.set(root)
	reg := telemetry.NewRegistry()
	tt := &transportTap{m: m, at: at, fault: fx.c.fault, onManifest: func(b []byte) {
		manifests = append(manifests, append([]byte(nil), b...))
	}}
	defer tt.closeIdle()
	cl, err := channel.NewClient(channel.ClientConfig{
		Name:      "follower",
		Transport: channel.NewHTTPTransport(fx.srv.url, channel.HTTPOptions{Client: tt.httpClient(), Seed: fx.c.seed, Registry: reg}),
		Blobs:     &blobTap{BlobCache: channel.NewMemBlobCache(), m: m, at: at},
		Registry:  reg,
		VerifyKey: fx.verify,
		OnApplied: func(e channel.Entry, _ []byte) error {
			applied = append(applied, e.Name)
			appliedAt = time.Now()
			return nil
		},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.Bind(mgr, 0)

	ctx := context.Background()
	var c0 srctree.CacheCounters
	var opMS, lagMS []float64
	last := 0
	for j, c := range cves {
		sp := root.Child("publisher.publish")
		start := time.Now()
		_, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch())
		published := time.Now()
		sp.End()
		if err != nil {
			return fmt.Errorf("publishing %s: %w", c.ID, err)
		}
		if j == 0 {
			m.sample("create_channel", ms(published.Sub(start)))
			// The build activity of the round's operations: every
			// publish after channel creation.
			c0 = srctree.Counters()
		} else {
			m.sample("publisher.publish_ms", ms(published.Sub(start)))
		}
		// The follower syncs until it has applied the new entry.
		for cl.Position() <= j {
			if time.Since(published) > followTimeout {
				return fmt.Errorf("follower stuck at %d of %d", cl.Position(), j+1)
			}
			sp := root.Child("client.sync")
			at.set(sp)
			t := time.Now()
			got, err := cl.Sync(ctx)
			at.set(root)
			sp.End()
			m.add("client.sync_ms", msSince(t))
			m.add("follower.polls", 1)
			m.add("follower.empty_poll_ratio/den", 1)
			if len(got) == 0 {
				m.add("follower.empty_poll_ratio/num", 1)
			}
			if err != nil {
				return fmt.Errorf("sync: %w", err)
			}
			pos := cl.Position()
			if pos < last {
				return fmt.Errorf("follower went back from %d to %d", last, pos)
			}
			last = pos
		}
		if cl.Position() != j+1 || len(applied) != j+1 || applied[j] != "ksplice-"+c.ID {
			return fmt.Errorf("follower at %d of %d applied %v", cl.Position(), j+1, applied)
		}
		if j > 0 {
			opMS = append(opMS, ms(appliedAt.Sub(start)))
			lagMS = append(lagMS, ms(appliedAt.Sub(published)))
		}
	}
	addBuildCounters(m, c0)
	for _, a := range mgr.Applied() {
		recordApplied(m, a)
	}
	if info, err := os.Stat(filepath.Join(dir, "channel.json")); err == nil {
		m.sample("publisher.manifest_bytes", float64(info.Size()))
	}

	// Every manifest the follower read must verify against the pinned
	// key and never list fewer updates than one read before it.
	seen := 0
	for _, b := range manifests {
		man, err := channel.DecodeManifest(b)
		if err == nil {
			err = man.VerifySignature(fx.verify)
		}
		if err != nil {
			return fmt.Errorf("fetched manifest: %w", err)
		}
		if len(man.Updates) < seen {
			return fmt.Errorf("stale manifest: %d updates after %d", len(man.Updates), seen)
		}
		seen = len(man.Updates)
	}
	m.add("server.manifest_reqs_per_update/den", float64(len(cves)))
	for j := range opMS {
		m.sample("op", opMS[j])
		m.timed(1, time.Duration(opMS[j]*1e6))
		m.sample("follower.lag_ms", lagMS[j])
		m.done()
	}
	return nil
}
