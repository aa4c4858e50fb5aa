package channel

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gosplice/internal/telemetry"
)

// Transport fetches a channel's manifest and tarballs. Implementations
// deliver raw bytes and may retry internally, but they make no integrity
// promise — the Client verifies every tarball against its manifest entry
// before the bytes are interpreted, so a Transport (or the network under
// it) can be arbitrarily faulty without a corrupt update ever reaching
// Apply.
//
// Every method takes a context and honours its cancellation, including
// between internal retries: a cancelled subscriber exits mid-backoff in
// milliseconds instead of sleeping out the full jittered schedule — what
// lets a fleet orchestrator stop hundreds of in-flight clients promptly.
type Transport interface {
	// Manifest fetches and decodes the channel manifest.
	Manifest(ctx context.Context) (*Manifest, error)
	// Fetch returns the raw tarball bytes for one manifest entry.
	Fetch(ctx context.Context, e Entry) ([]byte, error)
	// FetchBlob returns the raw bytes of one content-addressed blob the
	// manifest advertises (a prebuilt artifact or a binary delta). size
	// is the advertised length, or 0 when unknown; implementations may
	// use it to detect and resume truncated transfers. Like Fetch, the
	// bytes come back unverified — the caller owns the digest check.
	FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error)
}

// --- Local directory transport ---

type dirTransport struct {
	dir string
}

// NewDirTransport serves a channel straight from a local directory — the
// degenerate transport a publisher-side machine uses.
func NewDirTransport(dir string) Transport {
	return &dirTransport{dir: dir}
}

func (t *dirTransport) Manifest(ctx context.Context) (*Manifest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ReadManifest(t.dir)
}

func (t *dirTransport) Fetch(ctx context.Context, e Entry) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(t.dir, filepath.Base(e.File)))
}

func (t *dirTransport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(t.dir, blobsDirName, filepath.Base(digest)))
}

// --- HTTP transport ---

// HTTPOptions tunes NewHTTPTransport. The zero value is usable.
type HTTPOptions struct {
	// Timeout bounds each individual HTTP request (default 10s). A
	// subscribe over many updates issues many requests; none of them may
	// hang forever.
	Timeout time.Duration
	// MaxRetries bounds how many times one logical fetch is re-attempted
	// after a transport error, a 5xx, or a truncated body (default 4).
	MaxRetries int
	// Backoff is the base delay before the first retry; it doubles per
	// attempt, with up to 50% random jitter so a fleet of subscribers
	// does not retry in lockstep (default 100ms).
	Backoff time.Duration
	// Seed makes the jitter deterministic for tests; 0 seeds from the
	// current time.
	Seed int64
	// Client overrides the underlying *http.Client (its Timeout is
	// ignored in favour of per-request contexts).
	Client *http.Client
	// Registry, when non-nil, receives this transport's retry, backoff,
	// and resume metrics (mirrored into the process-wide registry) — how
	// a per-instance channel.Client attributes transport behaviour to
	// itself. nil counts process-wide only.
	Registry *telemetry.Registry
}

type httpTransport struct {
	base   string
	client *http.Client
	opt    HTTPOptions
	ms     *clientMetrics

	mu  sync.Mutex
	rng *rand.Rand
}

// NewHTTPTransport subscribes to a channel served by Server at baseURL
// (e.g. "http://updates.example.com/"). Every request carries a timeout
// and the caller's context; failures are retried with exponential backoff
// and jitter (the sleeps select on the context, so cancellation is
// immediate); a truncated tarball body is resumed from the byte where it
// broke off via a Range request rather than refetched whole.
func NewHTTPTransport(baseURL string, o HTTPOptions) Transport {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	return &httpTransport{
		base:   strings.TrimSuffix(baseURL, "/"),
		client: client,
		opt:    o,
		ms:     registryClientMetrics(o.Registry),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// backoff sleeps before retry attempt (0-based), exponentially with
// jitter. The sleep selects on ctx, so a cancelled client abandons the
// retry schedule immediately — it returns ctx's error instead of
// sleeping it out.
func (t *httpTransport) backoff(ctx context.Context, attempt int) error {
	d := t.opt.Backoff << uint(attempt)
	t.mu.Lock()
	jitter := time.Duration(t.rng.Int63n(int64(d)/2 + 1))
	t.mu.Unlock()
	t.ms.retries.Inc()
	t.ms.backoff.ObserveDuration(d + jitter)
	timer := time.NewTimer(d + jitter)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// get issues one bounded GET. A Range header is added when offset > 0.
// When the context carries a span, the request is stamped with its
// traceparent so the server's handler span joins the caller's trace.
// It returns the response with its body unread; the caller must close it.
func (t *httpTransport) get(ctx context.Context, path string, offset int64) (*http.Response, context.CancelFunc, error) {
	rctx, cancel := context.WithTimeout(ctx, t.opt.Timeout)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	if tp := telemetry.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set(telemetry.TraceparentHeader, tp)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// retriableStatus reports server-side conditions worth retrying; 4xx
// responses are permanent (the URL is simply wrong).
func retriableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

func (t *httpTransport) Manifest(ctx context.Context) (*Manifest, error) {
	var lastErr error
	for attempt := 0; attempt <= t.opt.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := t.backoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, cancel, err := t.get(ctx, "/"+manifestName, 0)
		if err != nil {
			lastErr = err
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		switch {
		case resp.StatusCode != http.StatusOK:
			lastErr = fmt.Errorf("channel: manifest: server returned %s", resp.Status)
			if !retriableStatus(resp.StatusCode) {
				return nil, lastErr
			}
		case err != nil:
			lastErr = fmt.Errorf("channel: manifest: reading body: %w", err)
		default:
			m, err := DecodeManifest(b)
			if err != nil {
				// Truncated or corrupted in flight; the self-digest or the
				// JSON decoder caught it. Retry.
				lastErr = err
				continue
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("channel: manifest unavailable after %d attempts: %w", t.opt.MaxRetries+1, lastErr)
}

// Fetch downloads one tarball, resuming from the last good byte when the
// body is cut short. It returns the accumulated bytes unverified —
// the Client owns the digest check.
func (t *httpTransport) Fetch(ctx context.Context, e Entry) ([]byte, error) {
	return t.download(ctx, "/updates/"+e.File, e.File, e.Size)
}

// FetchBlob downloads one content-addressed blob through the same
// retry/backoff/Range-resume machinery as tarball fetches — a truncated
// prebuilt image resumes mid-body instead of restarting.
func (t *httpTransport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	label := digest
	if len(label) > 12 {
		label = label[:12] + "…"
	}
	return t.download(ctx, "/blob/"+digest, label, size)
}

// download is the shared body of Fetch and FetchBlob: bounded attempts,
// exponential backoff, and resume-from-last-good-byte on truncation.
// label only decorates errors; size (when > 0) catches clean-but-early
// connection closes.
func (t *httpTransport) download(ctx context.Context, path, label string, size int64) ([]byte, error) {
	var (
		buf     []byte
		lastErr error
	)
	for attempt := 0; attempt <= t.opt.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := t.backoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		offset := int64(len(buf))
		resp, cancel, err := t.get(ctx, path, offset)
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case offset > 0 && resp.StatusCode == http.StatusPartialContent:
			// Resuming where the last body broke off.
			t.ms.resumes.Inc()
		case resp.StatusCode == http.StatusOK:
			// Full body (or the server ignored our Range): start over.
			buf = buf[:0]
		default:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
			lastErr = fmt.Errorf("channel: %s: server returned %s", label, resp.Status)
			if !retriableStatus(resp.StatusCode) {
				return nil, lastErr
			}
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		buf = append(buf, b...)
		if err != nil {
			// Truncated body: keep what arrived and resume from there.
			lastErr = fmt.Errorf("channel: %s: body truncated at byte %d: %w", label, len(buf), err)
			continue
		}
		if size > 0 && int64(len(buf)) < size {
			// The connection closed cleanly but early (proxy cut, fault
			// injection): same resume path.
			lastErr = fmt.Errorf("channel: %s: got %d of %d bytes", label, len(buf), size)
			continue
		}
		return buf, nil
	}
	return nil, fmt.Errorf("channel: %s unavailable after %d attempts: %w", label, t.opt.MaxRetries+1, lastErr)
}
