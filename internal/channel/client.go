package channel

// Client is the channel's one subscriber: a transport, a persistent (or
// ephemeral) blob cache, a per-instance telemetry registry, a write-ahead
// apply journal, and the machine's channel position, behind a
// context-cancellable Sync. cmd/ksplice-channel's subscribe mode is one
// Client; the fleet orchestrator is hundreds of them in one process,
// each with its own registry (pushed upstream as fleet reports) and its
// own fault-injecting transport.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/telemetry"
)

// ClientConfig configures a Client. Transport is required; everything
// else has a usable zero value.
type ClientConfig struct {
	// Name identifies the client in fleet reports and errors (default
	// "client").
	Name string
	// Transport reaches the channel. The client uses it but does not own
	// it.
	Transport Transport
	// StateDir, when non-empty, roots the client's persistent state: its
	// blob cache lives at StateDir/blob-cache and its write-ahead apply
	// journal at StateDir/apply-journal.jsonl. Empty means fully
	// ephemeral (an in-memory blob cache, no journal).
	StateDir string
	// Crash, when non-nil, receives every crash point on this client's
	// persistence paths (journal appends and compactions, blob-cache
	// writes) — the hook a fault plan uses to schedule a simulated
	// process death. Nil falls back to the process-global hook.
	Crash crashpoint.Hook
	// Blobs overrides the blob cache outright (StateDir then does not
	// create one). The cache is what lets binary deltas chain across
	// separate Syncs.
	Blobs BlobCache
	// Registry, when non-nil, is the client's metric registry; nil
	// creates a private one. Either way every increment also lands on
	// the process-wide registry, so one /metrics stays coherent.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records this client's spans (Sync roots,
	// fetch/apply children); nil uses the process-wide tracer. A fleet
	// gives each member its own tracer so its Pusher ships exactly that
	// member's spans upstream.
	Tracer *telemetry.Tracer
	// Apply is passed through to core.Manager.Apply (and Undo) for every
	// update, so a busy machine can raise MaxAttempts or stretch
	// RetryDelay instead of inheriting hard-coded defaults.
	Apply core.ApplyOptions
	// FetchRetries bounds how many times one entry is re-fetched after
	// an integrity failure — a digest or size mismatch, or a tarball
	// that fails to parse (default 2, i.e. up to 3 fetches). Transports
	// retry transport-level failures internally; this guards the end to
	// end check above them.
	FetchRetries int
	// VerifyKey, when non-nil, pins the channel's publisher: the
	// manifest must carry a valid ed25519 signature by this key or it is
	// refused outright — a hard error, not a PositionError, because an
	// unauthenticated manifest is an attack, not an outage.
	VerifyKey VerifyKey
	// NoPrebuilt makes InstallBase skip the channel's prebuilt base set
	// (the machine then compiles its boot from source).
	NoPrebuilt bool
	// OnApplied, when non-nil, is called after each update applies and
	// its position commits, with the manifest entry and verified tarball
	// bytes — the hook a subscriber uses to persist local copies for
	// later replay. An error stops the Sync; the update stays applied.
	OnApplied func(e Entry, b []byte) error
	// Throttle, when > 0, sleeps this long after every applied update —
	// how a fleet simulates slow machines. The sleep respects the Sync
	// context.
	Throttle time.Duration
}

// Client is one subscriber machine's channel stack. Safe for concurrent
// use, though a machine normally runs one Sync at a time.
type Client struct {
	cfg      ClientConfig
	t        Transport
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	ms       *clientMetrics
	blobs    BlobCache
	state    *ClientState
	recovery Recovery

	mu      sync.Mutex
	mgr     *core.Manager
	base    int // channel position when the manager was bound; Rollback's floor
	pos     int
	closed  bool
	cancels map[*context.CancelFunc]struct{}
}

// NewClient builds a client. The machine itself (its kernel and update
// manager) attaches later via Bind — constructing the client is cheap
// and never boots anything.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("channel: client needs a transport")
	}
	if cfg.Name == "" {
		cfg.Name = "client"
	}
	if cfg.FetchRetries <= 0 {
		cfg.FetchRetries = 2
	}
	c := &Client{
		cfg:     cfg,
		t:       cfg.Transport,
		cancels: map[*context.CancelFunc]struct{}{},
	}
	c.reg = cfg.Registry
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.tracer = cfg.Tracer
	if c.tracer == nil {
		c.tracer = telemetry.DefaultTracer()
	}
	c.ms = registryClientMetrics(c.reg)
	switch {
	case cfg.Blobs != nil:
		c.blobs = cfg.Blobs
	case cfg.StateDir != "":
		bc, err := NewDirBlobCache(filepath.Join(cfg.StateDir, "blob-cache"))
		if err != nil {
			return nil, fmt.Errorf("channel: client blob cache: %w", err)
		}
		bc.SetCrashHook(cfg.Crash)
		c.blobs = bc
	default:
		c.blobs = NewMemBlobCache()
	}
	if cfg.StateDir != "" {
		st, rec, err := OpenClientState(cfg.StateDir, cfg.Crash)
		if err != nil {
			return nil, fmt.Errorf("channel: client state: %w", err)
		}
		c.state, c.recovery = st, rec
		if rec.TornRecords > 0 {
			c.ms.tornDetected.Add(uint64(rec.TornRecords))
		}
		if rec.Corrupt {
			c.ms.tornDetected.Inc()
		}
	}
	return c, nil
}

// Recovery reports what the journal recovery pass found when the
// client opened its state dir: the committed position on disk, any
// mid-flight apply, and whether torn or corrupt state was degraded.
// The zero value for ephemeral (no StateDir) clients.
func (c *Client) Recovery() Recovery { return c.recovery }

// Name returns the client's fleet-report source id.
func (c *Client) Name() string { return c.cfg.Name }

// Registry returns the client's metric registry — what its Pusher
// snapshots and pushes upstream.
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// Tracer returns the client's span tracer.
func (c *Client) Tracer() *telemetry.Tracer { return c.tracer }

// Blobs returns the client's blob cache.
func (c *Client) Blobs() BlobCache { return c.blobs }

// Bind attaches the running machine: its update manager and its current
// channel position. position becomes the floor Rollback will not undo
// past — whatever was on the machine before this client managed it is
// not this client's to remove.
func (c *Client) Bind(mgr *core.Manager, position int) {
	c.mu.Lock()
	c.mgr = mgr
	c.base = position
	c.pos = position
	c.mu.Unlock()
	c.ms.position.Set(int64(position))
	if c.state != nil {
		// The bind is the new durable truth: compact the journal down to
		// it. Best effort — a failed rebase leaves older (still valid)
		// records behind.
		c.state.Rebase(position, mgr.K.Version)
	}
}

// RestoreMachine rebuilds a crashed subscriber: it replays the
// journal's committed updates onto a freshly booted manager (from the
// blob cache where possible, the transport otherwise), resolves a
// mid-flight apply — rolling it forward when its verified bytes are
// already local, rolling it back (journal abort) otherwise — and binds
// the recovered machine at the journal position with rollback floor
// floor. It returns the recovered position. Clients without a StateDir
// just bind at floor.
//
// The journal is cross-checked against the machine: a journal written
// for a different kernel version, or claiming more updates than the
// channel has, is degraded to re-derive rather than trusted.
func (c *Client) RestoreMachine(ctx context.Context, mgr *core.Manager, floor int) (int, error) {
	if c.state == nil {
		c.Bind(mgr, floor)
		return floor, nil
	}
	ctx, done, err := c.syncCtx(ctx)
	if err != nil {
		return 0, err
	}
	defer done()
	rec := c.recovery
	target := rec.Position
	pending := rec.Pending
	if rec.KernelVersion != "" && rec.KernelVersion != mgr.K.Version {
		// The journal describes some other machine: torn state, re-derive.
		c.ms.tornDetected.Inc()
		target, pending = floor, nil
	}
	if target < floor {
		target = floor
	}
	if target > floor || pending != nil {
		m, err := c.manifest(ctx)
		if err != nil {
			return 0, fmt.Errorf("channel: client %s recovery: %w", c.cfg.Name, err)
		}
		if target > len(m.Updates) {
			c.ms.tornDetected.Inc()
			target, pending = floor, nil
		}
		for i := floor; i < target; i++ {
			if err := c.replayEntry(ctx, mgr, m, m.Updates[i]); err != nil {
				return 0, fmt.Errorf("channel: client %s replaying %s: %w", c.cfg.Name, m.Updates[i].Name, err)
			}
		}
		if pending != nil {
			// The torn apply. Roll forward only from bytes already on this
			// machine — recovery must not depend on the network for the
			// update that was mid-flight.
			c.ms.tornDetected.Inc()
			rolled := false
			if pending.Pos == target+1 && target < len(m.Updates) {
				e := m.Updates[target]
				if b, ok := c.blobs.Get(e.Sha256); ok {
					if u, err := decodeVerified(b, e); err == nil {
						if _, err := mgr.Apply(u, c.cfg.Apply); err != nil {
							return 0, fmt.Errorf("channel: client %s rolling forward %s: %w", c.cfg.Name, e.Name, err)
						}
						if err := c.state.Commit(target + 1); err != nil {
							return 0, err
						}
						c.ms.journalReplays.Inc()
						target++
						rolled = true
					}
				}
			}
			if !rolled {
				if err := c.state.Abort(); err != nil {
					return 0, err
				}
			}
		}
	}
	// Reconcile the applied counter with the recovered height: increments
	// lost in the crash window between an apply and its count (or a whole
	// previous process's worth, for a fresh one) are made up here, so
	// "applied" and "position" agree again fleet-wide.
	if have := int(c.reg.Snapshot().CounterFamily(MetricApplied)); have < target-floor {
		c.ms.applied.Add(uint64(target - floor - have))
	}
	c.state.Rebase(target, mgr.K.Version)
	c.mu.Lock()
	c.mgr = mgr
	c.base = floor
	c.pos = target
	c.mu.Unlock()
	c.ms.position.Set(int64(target))
	c.ms.recoveries.Inc()
	return target, nil
}

// replayEntry re-applies one committed update during recovery: bytes
// from the blob cache when present, a verified transport fetch
// otherwise.
func (c *Client) replayEntry(ctx context.Context, mgr *core.Manager, m *Manifest, e Entry) error {
	u, _, err := fetchVerified(ctx, c.t, m, e, c.blobs, c.cfg.FetchRetries, c.ms)
	if err != nil {
		return err
	}
	if _, err := mgr.Apply(u, c.cfg.Apply); err != nil {
		return err
	}
	c.ms.journalReplays.Inc()
	return nil
}

// Manager returns the bound update manager (nil before Bind) — the
// handle a health prober uses to stress the patched kernel.
func (c *Client) Manager() *core.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mgr
}

// Position returns the machine's current channel position.
func (c *Client) Position() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos
}

// syncCtx derives a cancellable context registered with Close, so a
// closed client aborts every in-flight Sync (mid-backoff included).
func (c *Client) syncCtx(ctx context.Context) (context.Context, func(), error) {
	ctx, cancel := context.WithCancel(ctx)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		return nil, nil, fmt.Errorf("channel: client %s is closed", c.cfg.Name)
	}
	key := &cancel
	c.cancels[key] = struct{}{}
	c.mu.Unlock()
	done := func() {
		c.mu.Lock()
		delete(c.cancels, key)
		c.mu.Unlock()
		cancel()
	}
	return ctx, done, nil
}

// manifest fetches the channel's manifest and, when a key is pinned,
// checks its signature. A transport failure is an outage, reported as a
// PositionError at the client's current position; a manifest the pinned
// key did not sign is refused with a hard error.
func (c *Client) manifest(ctx context.Context) (*Manifest, error) {
	m, err := c.t.Manifest(ctx)
	if err != nil {
		return nil, &PositionError{Position: c.Position(), Err: err}
	}
	if c.cfg.VerifyKey != nil {
		if err := m.VerifySignature(c.cfg.VerifyKey); err != nil {
			return nil, fmt.Errorf("channel: refusing manifest: %w", err)
		}
	}
	return m, nil
}

// Sync applies every channel update the machine does not yet have, in
// order, from its current position, returning the updates applied this
// call.
//
// Every tarball is verified against its manifest digest and size before
// it is parsed; corrupt bytes are re-fetched up to FetchRetries times
// and are never handed to Apply. With a StateDir, each apply is
// bracketed by a journal begin record (after the bytes verify) and a
// commit record (before the apply is counted, so a journal that says
// "committed" never claims an update the metrics have not seen).
//
// If the channel becomes unreachable, an entry stays bad, or ctx (or
// Close) cancels the sync, the machine keeps running at the position it
// reached and the returned *PositionError reports it; the recorded
// position advances to it, and the next Sync resumes there.
func (c *Client) Sync(ctx context.Context) ([]*core.Update, error) {
	c.mu.Lock()
	mgr, from := c.mgr, c.pos
	c.mu.Unlock()
	if mgr == nil {
		return nil, fmt.Errorf("channel: client %s has no machine bound", c.cfg.Name)
	}
	ctx, done, err := c.syncCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	// The sync root span: every transport request and apply below joins
	// this trace, and the traceparent crosses the wire to the server.
	sp := c.tracer.Start("client.sync",
		telemetry.A("client", c.cfg.Name),
		telemetry.A("from", fmt.Sprintf("%d", from)))
	defer sp.End()
	ctx = telemetry.ContextWithSpan(ctx, sp)
	applied, err := c.syncFrom(ctx, sp, mgr, from)
	pos := from + len(applied)
	sp.SetAttr("applied", fmt.Sprintf("%d", len(applied)))
	sp.SetAttr("to", fmt.Sprintf("%d", pos))
	c.mu.Lock()
	c.pos = pos
	c.mu.Unlock()
	c.ms.position.Set(int64(pos))
	if _, ok := IsPosition(err); ok {
		c.ms.degraded.Inc()
	}
	return applied, err
}

// syncFrom is Sync's loop: from is the machine's position, and each
// entry gets fetch and apply spans under sp.
func (c *Client) syncFrom(ctx context.Context, sp *telemetry.Span, mgr *core.Manager, from int) ([]*core.Update, error) {
	m, err := c.manifest(ctx)
	if err != nil {
		return nil, err
	}
	if m.KernelVersion != mgr.K.Version {
		return nil, fmt.Errorf("channel: serves %q, machine runs %q", m.KernelVersion, mgr.K.Version)
	}
	if from > len(m.Updates) {
		return nil, fmt.Errorf("channel: machine claims %d updates, channel has %d", from, len(m.Updates))
	}
	var out []*core.Update
	// stop reports the position reached: every update in out is applied.
	stop := func(e Entry, err error) ([]*core.Update, error) {
		return out, &PositionError{Position: from + len(out), Entry: e.Name, Err: err}
	}
	for _, e := range m.Updates[from:] {
		if err := ctx.Err(); err != nil {
			return stop(e, err)
		}
		// The fetch span's traceparent rides the transport's requests, so
		// the server's handler spans nest inside it across the process
		// boundary.
		fsp := sp.Child("fetch", telemetry.A("entry", e.Name))
		u, b, err := fetchVerified(telemetry.ContextWithSpan(ctx, fsp), c.t, m, e, c.blobs, c.cfg.FetchRetries, c.ms)
		fsp.End()
		if err != nil {
			return stop(e, err)
		}
		next := from + len(out) + 1
		if c.state != nil {
			if err := c.state.Begin(JournalEntry{Pos: next, Name: e.Name, Sha256: e.Sha256, Size: e.Size, Manifest: m.Digest}, mgr.K.Version); err != nil {
				return stop(e, fmt.Errorf("journaling begin: %w", err))
			}
		}
		asp := sp.Child("apply", telemetry.A("entry", e.Name))
		_, err = mgr.Apply(u, c.cfg.Apply)
		asp.End()
		if err != nil {
			return stop(e, fmt.Errorf("applying: %w", err))
		}
		var commitErr error
		if c.state != nil {
			commitErr = c.state.Commit(next)
		}
		c.ms.applied.Inc()
		out = append(out, u)
		c.ms.position.Set(int64(next))
		if commitErr != nil {
			return stop(e, fmt.Errorf("journaling commit: %w", commitErr))
		}
		if c.cfg.OnApplied != nil {
			if err := c.cfg.OnApplied(e, b); err != nil {
				return stop(e, fmt.Errorf("on-applied hook: %w", err))
			}
		}
		if c.cfg.Throttle > 0 {
			timer := time.NewTimer(c.cfg.Throttle)
			select {
			case <-ctx.Done():
				timer.Stop()
				return stop(e, ctx.Err())
			case <-timer.C:
			}
		}
	}
	return out, nil
}

// Rollback undoes hot updates, most recent first, until the machine is
// back at position to (floored at the position it had when bound). This
// is the fleet-wide "pull the patch back out" path: every undo passes
// through the same quiescence machinery the applies did. It returns how
// many updates were undone.
func (c *Client) Rollback(to int) (int, error) {
	c.mu.Lock()
	mgr := c.mgr
	if to < c.base {
		to = c.base
	}
	c.mu.Unlock()
	if mgr == nil {
		return 0, fmt.Errorf("channel: client %s has no machine bound", c.cfg.Name)
	}
	n := 0
	for {
		c.mu.Lock()
		if c.pos <= to {
			c.mu.Unlock()
			return n, nil
		}
		c.mu.Unlock()
		if err := mgr.Undo(c.cfg.Apply); err != nil {
			return n, fmt.Errorf("channel: client %s rollback: %w", c.cfg.Name, err)
		}
		c.mu.Lock()
		c.pos--
		pos := c.pos
		c.mu.Unlock()
		if c.state != nil {
			if err := c.state.Undo(pos); err != nil {
				return n + 1, fmt.Errorf("channel: client %s journaling undo: %w", c.cfg.Name, err)
			}
		}
		c.ms.position.Set(int64(pos))
		n++
	}
}

// InstallBase warms the local build store with the channel's base
// prebuilt artifact set (verifying the manifest signature first when a
// key is pinned) — what a subscriber runs before booting its machine,
// so the boot hits the store instead of the compiler. It is the only
// prebuilt content a subscriber installs: it boots the base release and
// takes every later position as a hot update. Artifacts that fail to
// arrive or decode are counted as failed and left to the source build.
// Returns the manifest alongside the install summary; on a NoPrebuilt
// client it only fetches and verifies the manifest.
func (c *Client) InstallBase(ctx context.Context) (*Manifest, InstallStats, error) {
	var st InstallStats
	ctx, done, err := c.syncCtx(ctx)
	if err != nil {
		return nil, st, err
	}
	defer done()
	m, err := c.manifest(ctx)
	if err != nil {
		return nil, st, err
	}
	if !c.cfg.NoPrebuilt {
		st = installBase(ctx, c.t, m, c.blobs, c.ms)
	}
	return m, st, nil
}

// Pusher returns a telemetry pusher that reports this client's registry
// to a fleet aggregation endpoint under the client's name.
func (c *Client) Pusher(url string, interval time.Duration) *telemetry.Pusher {
	p := &telemetry.Pusher{
		URL:      url,
		Source:   c.cfg.Name,
		Interval: interval,
		Gather:   func() telemetry.Snapshot { return c.reg.Snapshot() },
	}
	// The client's spans ride upstream with each report (deduped
	// aggregator-side by span sequence). Fleets hand each member a
	// private tracer so a member ships only its own spans.
	p.Tracer = c.tracer
	return p
}

// Close cancels every in-flight Sync and refuses new ones. It does not
// touch the machine: applied updates stay applied (use Rollback first
// to remove them).
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	cancels := make([]*context.CancelFunc, 0, len(c.cancels))
	for k := range c.cancels {
		cancels = append(cancels, k)
	}
	c.mu.Unlock()
	for _, k := range cancels {
		(*k)()
	}
	if c.state != nil {
		c.state.Close()
	}
}
