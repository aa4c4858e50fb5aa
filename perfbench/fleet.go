package main

// fleet-rollout: a 96-machine canary rollout (1% -> 10% -> 100%) across
// all four releases, against channels published at set-up, with one sync
// worker per CPU, a seed per rollout, and no faults or state dirs. It is
// the only path through internal/fleet and the FleetAggregator health
// gate, with concurrent syncs contending for the servers. Nothing fsyncs,
// so a persistence change must leave it flat while a serving change moves
// it. The fleet's servers are internal: their time comes from the
// process-wide request histograms.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/cvedb"
	"gosplice/internal/fleet"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

type fleetFx struct {
	c       *config
	work    string
	dirs    map[string]string
	head    map[string]int
	clients int
}

func setupFleet(c *config) (fixture, error) {
	srctree.SetStore(store.MustNew(store.Options{}))
	work, err := os.MkdirTemp(c.work, "fleet-")
	if err != nil {
		return nil, err
	}
	fx := &fleetFx{c: c, work: work, dirs: map[string]string{}, head: map[string]int{}, clients: 96}
	if c.tiny {
		fx.clients = 8
	}
	for _, rel := range cvedb.Versions {
		dir := filepath.Join(work, "channel-"+rel)
		if err := fleet.PublishChannel(dir, rel, false); err != nil {
			os.RemoveAll(work)
			return nil, err
		}
		fx.dirs[rel] = dir
		fx.head[rel] = len(cvedb.ForVersion(rel))
		// The fleet boots its template kernels through the build store;
		// a long-running orchestrator has them built.
		if _, err := bootRelease(rel); err != nil {
			os.RemoveAll(work)
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fleetFx) close() { os.RemoveAll(fx.work) }

// requestSum is the summed latency, in ms, of one route in the
// process-wide channel request histogram.
func requestSum(s telemetry.Snapshot, route string) float64 {
	return s.Histograms[fmt.Sprintf("gosplice_channel_request_seconds{route=%q}", route)].Sum * 1000
}

// op runs rollout i; each fleet machine is one operation.
func (fx *fleetFx) op(m *meter, i int) {
	for j := 0; j < fx.clients; j++ {
		m.attempt()
	}
	root := m.root("fleet-rollout.rollout")
	defer root.End()
	t := time.Now()
	synced, err := fx.rollout(m, root, fx.c.seed*1000+int64(i))
	d := time.Since(t)
	if err != nil {
		for j := 0; j < fx.clients; j++ {
			m.fail("rollout %d: %v", i, err)
		}
		return
	}
	for _, s := range synced {
		m.sample("op", s)
		m.done()
	}
	m.timed(len(synced), d)
}

// rollout runs one rollout and checks its gates, returning each machine's
// sync time in ms.
func (fx *fleetFx) rollout(m *meter, root *telemetry.Span, seed int64) ([]float64, error) {
	before := telemetry.Default().Snapshot()
	c0 := srctree.Counters()
	sp := root.Child("fleet.new")
	o, err := fleet.New(fleet.Config{
		Clients:     fx.clients,
		ChannelDirs: fx.dirs,
		Workers:     runtime.NumCPU(),
		Seed:        seed,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("fleet.run")
	res, err := o.Run(context.Background())
	sp.End()
	if err != nil {
		o.Close()
		return nil, err
	}
	// Each member's sync, as its client recorded and pushed it to the
	// aggregator; on the traced pass they nest under fleet.run, so its
	// self time is orchestration: gates, health reads, stress probes.
	var synced []float64
	for _, rec := range o.Aggregator().SpanRecords() {
		if rec.Name == "client.sync" && strings.HasPrefix(rec.Proc, "c") {
			synced = append(synced, ms(rec.Duration()))
			m.record(sp, "fleet.member_sync", rec.Start, rec.End)
		}
	}
	o.Close()
	after := telemetry.Default().Snapshot()
	addBuildCounters(m, c0)

	m.add("client.sync_ms", sumOf(synced))
	m.add("transport.bytes", float64(res.BytesOverWire))
	m.sample("transport.wire_bytes_per_machine/fleet", float64(res.BytesOverWire)/float64(fx.clients))
	m.add("fleet.server_manifest_ms", requestSum(after, "manifest")-requestSum(before, "manifest"))
	m.add("fleet.server_blob_ms", requestSum(after, "blob")-requestSum(before, "blob"))
	applied := after.Counter("gosplice_channel_delta_applied_total") - before.Counter("gosplice_channel_delta_applied_total")
	fallbacks := after.Counter(channel.MetricDeltaFallback) - before.Counter(channel.MetricDeltaFallback)
	m.add("delta.applied", float64(applied))
	m.add("delta.fallbacks", float64(fallbacks))
	m.add("delta.useful_ratio/num", float64(applied))
	m.add("delta.useful_ratio/den", float64(applied+fallbacks))
	m.add("fleet.reports", float64(res.Health.Sources))
	for _, r := range res.Rings {
		m.sample(fmt.Sprintf("fleet.ring%d_ms", r.Ring), ms(r.Duration))
	}

	if res.Halted {
		return nil, fmt.Errorf("healthy rollout halted at ring %d", res.HaltedRing)
	}
	for _, r := range res.Rings {
		if !r.Promoted || r.Synced != r.Members || r.Unhealthy != 0 {
			return nil, fmt.Errorf("ring %d: %d of %d synced, %d unhealthy, promoted %v", r.Ring, r.Synced, r.Members, r.Unhealthy, r.Promoted)
		}
	}
	if len(res.Health.Clients) != fx.clients {
		return nil, fmt.Errorf("%d health rows for %d machines", len(res.Health.Clients), fx.clients)
	}
	for _, row := range res.Health.Clients {
		rel := row.Source[strings.Index(row.Source, "-")+1:]
		if row.Position != int64(fx.head[rel]) || row.Applied != uint64(row.Position) {
			return nil, fmt.Errorf("%s: position %d, applied %d, head %d", row.Source, row.Position, row.Applied, fx.head[rel])
		}
	}
	if len(synced) < fx.clients {
		return nil, fmt.Errorf("%d sync spans for %d machines", len(synced), fx.clients)
	}
	if n := srctree.Counters().UnitMisses - c0.UnitMisses; n != 0 {
		return nil, fmt.Errorf("rollout compiled %d units", n)
	}
	return synced, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
