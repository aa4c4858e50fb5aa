package main

// Taps time each layer from outside, at the program's public seams: the
// channel server as an http.Handler, the HTTP transport's RoundTripper,
// the client's BlobCache and its crash-point hook. They count on both
// passes and record spans on the traced one.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/crashpoint"
	"gosplice/internal/telemetry"
)

// slot holds the span a client-side call is currently running under, so
// taps deeper in the stack parent their spans onto it.
type slot struct {
	mu sync.Mutex
	sp *telemetry.Span
}

func (s *slot) set(sp *telemetry.Span) {
	s.mu.Lock()
	s.sp = sp
	s.mu.Unlock()
}

func (s *slot) get() *telemetry.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sp
}

// child opens a child of the slot's span (nil when untraced).
func (s *slot) child(name string) *telemetry.Span { return s.get().Child(name) }

// route classifies a channel request path the way the server does.
func route(path string) string {
	switch {
	case path == "/channel.json" || path == "/":
		return "manifest"
	case strings.HasPrefix(path, "/updates/"):
		return "update"
	case strings.HasPrefix(path, "/blob/"):
		return "blob"
	}
	return "other"
}

// serverTap wraps a channel server: it times every request into the
// current meter and, on the traced pass, records a span that joins the
// caller's trace through the traceparent header.
type serverTap struct {
	h http.Handler
	m atomic.Pointer[meter]
}

func (s *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := s.m.Load()
	if m == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	rt := route(r.URL.Path)
	var sp *telemetry.Span
	if m.tr != nil {
		if id, parent, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
			sp = m.tr.StartRemote("server."+rt, id, parent)
		} else {
			sp = m.tr.Start("server." + rt)
		}
	}
	t0 := time.Now()
	s.h.ServeHTTP(w, r)
	sp.End()
	m.add("server."+rt+"_ms", msSince(t0))
	m.add("server."+rt+"_reqs", 1)
	if rt == "manifest" {
		m.add("server.manifest_reqs_per_update/num", 1)
	}
}

// server is a loopback HTTP server over a tapped handler.
type server struct {
	tap *serverTap
	hs  *http.Server
	url string
	wg  sync.WaitGroup
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{tap: &serverTap{h: h}, url: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.tap}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.hs.Close()
	s.wg.Wait()
}

// transportTap is the RoundTripper under a client's HTTP transport. It
// counts requests and body bytes, times each request until its body is
// consumed, and on the traced pass re-stamps traceparent with its own
// span so the server tap's span nests inside it.
type transportTap struct {
	base  http.RoundTripper
	m     *meter
	at    *slot
	fault func(path string) bool
	// onManifest, when set, receives every manifest body fetched.
	onManifest func([]byte)
}

func (t *transportTap) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.at.child("transport." + route(req.URL.Path))
	if sp != nil {
		req = req.Clone(req.Context())
		req.Header.Set(telemetry.TraceparentHeader, sp.Traceparent())
	}
	t.m.add("transport.requests", 1)
	t0 := time.Now()
	if t.fault != nil && t.fault(req.URL.Path) {
		sp.End()
		return &http.Response{
			StatusCode: http.StatusNotFound, Status: "404 Not Found",
			Header: http.Header{}, Body: io.NopCloser(strings.NewReader("withheld")),
			Request: req, ProtoMajor: 1, ProtoMinor: 1,
		}, nil
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End()
		t.m.add("transport.wait_ms", msSince(t0))
		return nil, err
	}
	body := &tapBody{rc: resp.Body, t: t, sp: sp, t0: t0}
	if t.onManifest != nil && route(req.URL.Path) == "manifest" {
		body.keep = &bytes.Buffer{}
	}
	resp.Body = body
	return resp, nil
}

// tapBody counts a response body and closes the request's span and wait
// interval when the body is drained or closed.
type tapBody struct {
	rc   io.ReadCloser
	t    *transportTap
	sp   *telemetry.Span
	t0   time.Time
	n    int64
	keep *bytes.Buffer
	once sync.Once
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if b.keep != nil {
		b.keep.Write(p[:n])
	}
	if errors.Is(err, io.EOF) {
		b.finish()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *tapBody) finish() {
	b.once.Do(func() {
		b.sp.End()
		b.t.m.add("transport.wait_ms", msSince(b.t0))
		b.t.m.add("transport.bytes", float64(b.n))
		if b.keep != nil {
			b.t.onManifest(b.keep.Bytes())
		}
	})
}

// httpClient returns an *http.Client whose transport is tapped. Keep-alive
// connections are bounded to one per host: each client makes one request
// at a time.
func (t *transportTap) httpClient() *http.Client {
	t.base = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: t}
}

// closeIdle releases the tap's pooled connections.
func (t *transportTap) closeIdle() {
	if tr, ok := t.base.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// blobTap wraps a client's blob cache: puts are timed (they fsync on a
// DirBlobCache) and gets are counted as hits or misses.
type blobTap struct {
	channel.BlobCache
	m  *meter
	at *slot
}

func (b *blobTap) Get(digest string) ([]byte, bool) {
	v, ok := b.BlobCache.Get(digest)
	b.m.add("blobcache.hit_ratio/den", 1)
	if ok {
		b.m.add("blobcache.hit_ratio/num", 1)
	}
	return v, ok
}

func (b *blobTap) Put(digest string, v []byte) {
	sp := b.at.child("blobcache.put")
	t0 := time.Now()
	b.BlobCache.Put(digest, v)
	sp.End()
	d := msSince(t0)
	b.m.add("blobcache.puts", 1)
	b.m.add("blobcache.put_ms", d)
}

// crashTap is a client's crash-point hook. It times each journal append
// (the append.before to append.synced interval), derives each apply inside
// a sync (a begin append's synced point to its commit append's before
// point), and forwards every label to an armed kill plan.
type crashTap struct {
	m  *meter
	at *slot

	mu      sync.Mutex
	before  time.Time
	syncing bool
	appends int // journal appends since the sync began
	applyAt time.Time
	kill    crashpoint.Hook // nil, or a kill plan's hook
}

// beginSync marks the start of a Client.Sync: from here to the end of the
// process lifetime, journal appends alternate begin, commit.
func (c *crashTap) beginSync() {
	c.mu.Lock()
	c.syncing, c.appends = true, 0
	c.mu.Unlock()
}

func (c *crashTap) hook(label string) {
	now := time.Now()
	c.mu.Lock()
	kill := c.kill
	switch label {
	case "channel.journal.append.before":
		c.before = now
		if c.syncing && c.appends%2 == 1 {
			// A commit append: the apply ran since the begin synced.
			c.m.sample("core.apply_us", us(now.Sub(c.applyAt)))
			c.m.add("sync.apply_ms", ms(now.Sub(c.applyAt)))
			c.m.record(c.at.get(), "core.apply", c.applyAt, now)
		}
	case "channel.journal.append.synced":
		d := now.Sub(c.before)
		c.m.add("journal.appends", 1)
		c.m.add("journal.append_ms", ms(d))
		c.m.record(c.at.get(), "journal.append", c.before, now)
		if c.syncing {
			c.appends++
			c.applyAt = now
		}
	}
	c.mu.Unlock()
	if kill != nil {
		kill(label)
	}
}
