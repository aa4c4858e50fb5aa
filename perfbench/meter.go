package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gosplice/internal/telemetry"
)

// pauseHistogram is the kernel's process-wide stop_machine pause
// histogram: every kernel instance, fleet members included, observes
// into it.
const pauseHistogram = "gosplice_kernel_stop_machine_pause_seconds"

// meter collects one pass's samples, sums and failures. Workloads record
// from their driver goroutine, from server handlers and (publish-follow)
// from the publisher goroutine, so every method locks.
type meter struct {
	tr *telemetry.Tracer // nil on the untraced pass

	mu        sync.Mutex
	samples   map[string][]float64
	sums      map[string]float64
	attempted int
	failed    int
	completed int
	errs      []string
	elapsed   time.Duration
	// blockOps, blockTime and blockRSS fill the current block: its
	// operations, their time and the highest resident set after one of
	// them. rates and peaks hold each full block's operations per second
	// and resident set peak.
	blockOps  int
	blockTime time.Duration
	blockRSS  float64
	rates     []float64
	peaks     []float64

	pause0 telemetry.HistogramSnapshot
	pause  telemetry.HistogramSnapshot // delta over the pass, set by finish
}

func newMeter(tr *telemetry.Tracer) *meter {
	return &meter{
		tr:      tr,
		samples: map[string][]float64{},
		sums:    map[string]float64{},
		pause0:  telemetry.Default().Snapshot().Histograms[pauseHistogram],
	}
}

func (m *meter) finish() {
	p := telemetry.Default().Snapshot().Histograms[pauseHistogram]
	m.pause = telemetry.HistogramSnapshot{Count: p.Count - m.pause0.Count, Sum: p.Sum - m.pause0.Sum}
}

// pauseMeanUS is the mean stop_machine pause over the pass.
func (m *meter) pauseMeanUS() float64 {
	if m.pause.Count == 0 {
		return 0
	}
	return m.pause.Sum / float64(m.pause.Count) * 1e6
}

// sample appends one observation to the named series.
func (m *meter) sample(name string, v float64) {
	m.mu.Lock()
	m.samples[name] = append(m.samples[name], v)
	m.mu.Unlock()
}

// rateBlock is the least time one throughput block spans.
const rateBlock = time.Second

// timed counts n timed operations that took d between them, and the
// resident set they left. Consecutive operations fill blocks of at least
// rateBlock; ops_per_s and peak_rss_mb are medians over the blocks, so
// hypervisor CPU steal that comes in bursts of seconds, or one garbage
// collection that started late, moves them only when it covers half the
// pass.
func (m *meter) timed(n int, d time.Duration) {
	rss := rssMB()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blockOps += n
	m.blockTime += d
	m.blockRSS = math.Max(m.blockRSS, rss)
	if m.blockTime >= rateBlock {
		m.rates = append(m.rates, float64(m.blockOps)/m.blockTime.Seconds())
		m.peaks = append(m.peaks, m.blockRSS)
		m.blockOps, m.blockTime, m.blockRSS = 0, 0, 0
	}
}

// rate is the median operations per second over the pass's full blocks;
// a pass too short to fill one (the self-test's) reports its partial
// block.
func (m *meter) rate() float64 {
	if len(m.rates) > 0 {
		return median(m.rates)
	}
	if m.blockTime == 0 {
		return 0
	}
	return float64(m.blockOps) / m.blockTime.Seconds()
}

// peakRSS is the median over the pass's full blocks of each block's
// resident set peak, in MB, or the partial block's.
func (m *meter) peakRSS() float64 {
	if len(m.peaks) > 0 {
		return median(m.peaks)
	}
	return m.blockRSS
}

// rssMB is the process's resident set now, in MB (0 if unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// total reads the current value of the named sums, added together.
func (m *meter) total(names ...string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := 0.0
	for _, n := range names {
		t += m.sums[n]
	}
	return t
}

// add accumulates v into the named sum.
func (m *meter) add(name string, v float64) {
	m.mu.Lock()
	m.sums[name] += v
	m.mu.Unlock()
}

// attempt counts one attempted operation.
func (m *meter) attempt() {
	m.mu.Lock()
	m.attempted++
	m.mu.Unlock()
}

// done counts one operation that passed every gate.
func (m *meter) done() {
	m.mu.Lock()
	m.completed++
	m.mu.Unlock()
}

// fail counts one failed operation; the first few reasons are kept.
func (m *meter) fail(format string, args ...any) {
	m.mu.Lock()
	m.failed++
	if len(m.errs) < 10 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
	m.mu.Unlock()
}

// root opens an operation's root span (nil when untraced).
func (m *meter) root(name string, attrs ...telemetry.Attr) *telemetry.Span {
	if m.tr == nil {
		return nil
	}
	return m.tr.Start(name, attrs...)
}

// record commits a measured interval as a child of parent (traced pass
// only).
func (m *meter) record(parent *telemetry.Span, name string, start, end time.Time) {
	if m.tr != nil && parent != nil {
		m.tr.Record(parent, name, start, end)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerKind says how a per-layer metric is derived from the meter.
type layerKind int

const (
	perOp   layerKind = iota // sum / completed operations
	p50                      // median of the series
	mean                     // mean of the series
	ratio                    // sum(name+"/num") / sum(name+"/den")
	perKey                   // mean over keys k of the mean of series name+"/"+k
	derived                  // filled in by run (tracing overhead)
)

// layerSpec is one per-layer metric.
type layerSpec struct {
	name, unit string
	kind       layerKind
}

// perLayer lists every per-layer metric in BENCHMARK.json order. Layers a
// workload does not exercise report 0.
var perLayerSpecs = []layerSpec{
	// srctree (MiniC + codegen) and the artifact store.
	{"srctree.build_ms", "ms/op", perOp},
	{"srctree.units_compiled", "count/op", perOp},
	{"srctree.unit_hit_ratio", "ratio", ratio},
	{"srctree.link_misses", "count/op", perOp},
	{"store.hits", "count/op", perOp},
	{"store.misses", "count/op", perOp},
	{"store.evictions", "count/op", perOp},
	// core create.
	{"core.diff_ms", "ms/op", perOp},
	{"core.units_changed", "count/op", perOp},
	// core apply and the kernel.
	{"core.runpre_us", "us", p50},
	{"core.runpre_bytes", "B/apply", mean},
	{"core.apply_us", "us", p50},
	{"core.apply_attempts_per_update", "count", mean},
	{"core.undo_us", "us", p50},
	{"kernel.pause_us", "us", p50},
	{"kernel.clone_us", "us", p50},
	{"kernel.boot_ms", "ms", p50},
	// SIM32 execution.
	{"vm.exec_ms", "ms/op", perOp},
	{"vm.guest_insns", "count/op", perOp},
	{"vm.ns_per_insn", "ns", ratio},
	// channel server.
	{"server.manifest_ms", "ms/op", perOp},
	{"server.manifest_reqs", "count/op", perOp},
	{"server.blob_ms", "ms/op", perOp},
	{"server.blob_reqs", "count/op", perOp},
	{"server.update_ms", "ms/op", perOp},
	{"server.update_reqs", "count/op", perOp},
	{"server.manifest_reqs_per_update", "count", ratio},
	{"fleet.server_manifest_ms", "ms/op", perOp},
	{"fleet.server_blob_ms", "ms/op", perOp},
	// channel transport and client.
	{"transport.wait_ms", "ms/op", perOp},
	{"transport.requests", "count/op", perOp},
	{"transport.bytes", "B/op", perOp},
	{"transport.wire_bytes_per_machine", "B", perKey},
	{"transport.retries", "count/op", perOp},
	{"client.sync_ms", "ms/op", perOp},
	{"client.self_ms", "ms/op", perOp},
	{"install.ms", "ms/op", perOp},
	{"install.installed", "count/op", perOp},
	{"install.hits", "count/op", perOp},
	{"install.failed", "count/op", perOp},
	// diffutil binary deltas.
	{"delta.applied", "count/op", perOp},
	{"delta.fallbacks", "count/op", perOp},
	{"delta.useful_ratio", "ratio", ratio},
	// persistence: apply journal and blob cache.
	{"journal.appends", "count/op", perOp},
	{"journal.append_ms", "ms/op", perOp},
	{"journal.replays", "count/op", perOp},
	{"journal.recover_ms", "ms", p50},
	{"blobcache.puts", "count/op", perOp},
	{"blobcache.put_ms", "ms/op", perOp},
	{"blobcache.hit_ratio", "ratio", ratio},
	// publisher and follower.
	{"publisher.publish_ms", "ms", p50},
	{"publisher.manifest_bytes", "B", mean},
	{"follower.polls", "count/op", perOp},
	{"follower.empty_poll_ratio", "ratio", ratio},
	{"follower.lag_ms", "ms", p50},
	// fleet orchestration.
	{"fleet.ring1_ms", "ms", p50},
	{"fleet.ring2_ms", "ms", p50},
	{"fleet.ring3_ms", "ms", p50},
	{"fleet.reports", "count/op", perOp},
	// the benchmark's own tracing.
	{"trace.overhead_pct", "%", derived},
	{"trace.spans", "count/op", derived},
}

// perLayer is perLayerSpecs as name/unit pairs.
var perLayer = func() []spec {
	out := make([]spec, len(perLayerSpecs))
	for i, s := range perLayerSpecs {
		out[i] = spec{s.name, s.unit}
	}
	return out
}()

// layerMetrics derives every per-layer metric the meter can give.
func (m *meter) layerMetrics() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]float64{}
	ops := math.Max(1, float64(m.completed))
	for _, s := range perLayerSpecs {
		switch s.kind {
		case perOp:
			out[s.name] = m.sums[s.name] / ops
		case p50:
			out[s.name] = percentile(m.samples[s.name], 50)
		case mean:
			if xs := m.samples[s.name]; len(xs) > 0 {
				sum := 0.0
				for _, x := range xs {
					sum += x
				}
				out[s.name] = sum / float64(len(xs))
			}
		case ratio:
			if den := m.sums[s.name+"/den"]; den > 0 {
				out[s.name] = m.sums[s.name+"/num"] / den
			}
		case perKey:
			out[s.name] = m.perKeyLocked(s.name)
		}
	}
	return out
}

// perKeyLocked averages, over every key k, the mean of the series
// name+"/"+k. Wire bytes are keyed by release: every machine of a release
// pulls the same bytes, so the figure repeats exactly whatever mix of
// releases a run completed.
func (m *meter) perKeyLocked(name string) float64 {
	total, keys := 0.0, 0
	for series, xs := range m.samples {
		if !strings.HasPrefix(series, name+"/") || len(xs) == 0 {
			continue
		}
		total += sumOf(xs) / float64(len(xs))
		keys++
	}
	if keys == 0 {
		return 0
	}
	return total / float64(keys)
}

// count is the number of samples behind a per-layer metric.
func (m *meter) count(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range perLayerSpecs {
		if s.name != name {
			continue
		}
		switch s.kind {
		case p50, mean:
			return len(m.samples[name])
		case perKey:
			n := 0
			for series, xs := range m.samples {
				if strings.HasPrefix(series, name+"/") {
					n += len(xs)
				}
			}
			return n
		case ratio:
			return int(m.sums[name+"/den"])
		}
	}
	return m.completed
}

// named lists the workload-specific end-to-end figures, each read from
// the series it is recorded under, with units; printNamed reports
// whichever the pass has.
var named = []struct{ name, series, unit string }{
	{"op", "op", "ms"},
	{"create", "create", "ms"},
	{"apply", "core.apply_us", "us"},
	{"pause", "kernel.pause_us", "us"},
	{"recover", "journal.recover_ms", "ms"},
	{"publish", "publisher.publish_ms", "ms"},
	{"create_channel", "create_channel", "ms"},
	{"propagation", "follower.lag_ms", "ms"},
}

// printNamed prints the median and the tail of every named series the
// pass recorded, with its sample count, plus wire bytes. The tail is the
// highest percentile that still has at least 10 samples beyond it, and is
// left out below 100 samples, where that percentile is under p90.
func (m *meter) printNamed(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "end-to-end series (median; tail = highest percentile with 10 samples beyond it, from 100 samples; n):\n")
	for _, s := range named {
		xs := m.samples[s.series]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s_p50_%s %.4f", s.name, s.unit, percentile(xs, 50))
		if n := float64(len(xs)); n >= 100 {
			p := 100 * (n - 10) / n
			fmt.Fprintf(&b, "  %s_tail_%s %.4f (p%.1f)", s.name, s.unit, percentile(xs, p), p)
		}
		fmt.Fprintf(&b, "  n=%d\n", len(xs))
	}
	if wire := m.perKeyLocked("transport.wire_bytes_per_machine"); wire > 0 {
		fmt.Fprintf(&b, "  wire_bytes_per_machine %.1f B (never-killed machines, averaged per release)\n", wire)
	}
	if wire := m.sums["transport.bytes"]; wire > 0 {
		fmt.Fprintf(&b, "  wire_bytes_per_op %.1f B over %d ops\n", wire/math.Max(1, float64(m.completed)), m.completed)
	}
	fmt.Fprintf(&b, "  stop_machine pauses: %d, mean %.2f us\n", m.pause.Count, m.pauseMeanUS())
	io.WriteString(w, b.String())
}
