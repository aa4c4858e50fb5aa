// Command perfbench is gosplice's end-to-end benchmark. It runs one named
// workload against the real internal packages, checks every operation's
// output, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload create-cold --seed 1 --seconds 20 --trace 0
//
// A run sets the workload up several times (setup_s is the median), runs
// a short warm-up, then measures a closed loop for --seconds. With
// --trace 0 the result carries the end-to-end metrics. With --trace 1 a
// second pass records the benchmark's own spans around every layer call;
// the result carries the per-layer metrics, a Chrome trace and a
// self-time table are written under --out, and the throughput gap between
// the two passes is the tracing overhead.
//
// run.sh builds this package inside the repository checkout and runs it;
// BENCHMARK.json names the workloads and metrics. The self-test is
// `go test .` in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gosplice/internal/telemetry"
)

// A run sets its workload up setupReps times, and more (up to maxSetups)
// until setupSeconds have gone into set-up; setup_s is the median, so one
// slow set-up (a GC, a cold page cache) does not move it, and a workload
// whose set-up takes milliseconds still gets a steady figure.
const (
	setupReps    = 3
	setupSeconds = 1.0
	maxSetups    = 30
)

// warmShare is the length of the warm-up pass, as a share of --seconds.
const warmShare = 0.1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric and its unit, in the order BENCHMARK.json lists it.
type spec struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. "op" is
// the workload's unit of work: a create/apply/undo cycle, one machine's
// boot to head, one published update reaching the follower, one fleet
// machine's sync. The tail of each series is printed, not reported: on a
// shared virtual machine it is set by the hypervisor's CPU steal and
// moves by half its value between runs of the same code.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // trace artifacts land here
	work     string // scratch directory, removed on exit
	// fault, when set, makes the benchmark's HTTP transport answer 404 to
	// every request it matches — the self-test's injected fault.
	fault func(path string) bool
	// tiny shrinks the run for the self-test: one set-up, a smaller
	// fleet.
	tiny bool
}

// fixture is a set-up workload, ready to run operations.
type fixture interface {
	// op runs operation i of the seeded sequence, recording into m.
	op(m *meter, i int)
	close()
}

// workload is one named benchmark scenario.
type workload struct {
	name  string
	setup func(c *config) (fixture, error)
	// op says what one operation is.
	op string
}

var workloads = []workload{
	{"create-cold", setupCreate, "one CVE's create, apply, stress and undo cycle"},
	{"subscribe-prebuilt", setupSubscribe, "one never-killed machine's boot to head (killed ones: recover); ops_per_s is over their own time"},
	{"publish-follow", setupPublish, "one update of an existing channel, Publish start to the follower having applied it; ops_per_s is over their own time"},
	{"fleet-rollout", setupFleet, "one fleet machine's sync"},
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload name")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1 = also run a traced pass and report per-layer metrics")
	flag.StringVar(&c.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for traces and tables")
	flag.Parse()
	c.trace = *traceFlag == 1
	res, err := run(&c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it and returns the result; human
// readable detail goes to w.
func run(c *config, w io.Writer) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == c.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	// One thread runs Go code. On a shared two-CPU virtual machine a
	// second busy thread (a second client goroutine, or the garbage
	// collector's idle-time marking) draws hypervisor steal of 20-40%, and
	// the figures measure the neighbours: across three runs of the same
	// code a subscribe-prebuilt machine's median time moved from 209 to
	// 297 ms with two threads, 132 to 145 ms with one. Fleet members still
	// sync concurrently, Workers = nproc of them.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(c.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	c.work = work

	var fx fixture
	var setups []float64
	spent := 0.0
	for i := 0; i == 0 || !c.tiny && (i < setupReps || spent < setupSeconds && i < maxSetups); i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		t0 := time.Now()
		fx, err = wl.setup(c)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer fx.close()

	// The warm-up pass lets lazy set-up finish and the heap reach its
	// working size before anything is timed; its operations are checked
	// and count towards attempted and failed like any other.
	warm := measure(fx, c.seconds*warmShare, nil)
	plain := measure(fx, c.seconds, nil)
	res := &result{Attempted: warm.attempted + plain.attempted, Failed: warm.failed + plain.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": plain.peakRSS(),
		"op_p50_ms":   percentile(plain.samples["op"], 50),
		"ops_per_s":   plain.rate(),
	}
	host := hostContext(c)
	fmt.Fprintf(w, "host: %s\n", host)
	fmt.Fprintf(w, "%s seed=%d: %d attempted, %d failed (warm-up included), %d ops timed in %.2fs; %d set-ups, median %.4fs\n",
		c.workload, c.seed, res.Attempted, res.Failed, plain.completed, plain.elapsed.Seconds(), len(setups), e2e["setup_s"])
	fmt.Fprintf(w, "op = %s\n", wl.op)
	for _, e := range append(warm.errs, plain.errs...) {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	plain.printNamed(w)

	if !c.trace {
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{e2e[s.name], s.unit}
		}
		for _, s := range endToEnd {
			fmt.Fprintf(w, "  %-28s %14.4f %-8s\n", s.name, e2e[s.name], s.unit)
		}
		return res, nil
	}

	tr := telemetry.NewTracer(1 << 17)
	traced := measure(fx, c.seconds, tr)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	for _, e := range traced.errs {
		fmt.Fprintf(w, "FAILED (traced): %s\n", e)
	}
	layer := traced.layerMetrics()
	untracedRate, tracedRate := plain.rate(), traced.rate()
	layer["trace.overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate
	recs := tr.Snapshot()
	layer["trace.spans"] = float64(len(recs)) / math.Max(1, float64(traced.completed))
	for _, s := range perLayer {
		res.Metrics[s.name] = metric{layer[s.name], s.unit}
	}
	table := selfTimes(recs)
	base := filepath.Join(c.out, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	if err := telemetry.WriteChromeTraceFile(base+".trace.json", tr); err != nil {
		return nil, err
	}
	var tb strings.Builder
	fmt.Fprintf(&tb, "# %s seed=%d traced pass: %d ops, %d spans (%d dropped)\n# host: %s\n",
		c.workload, c.seed, traced.completed, len(recs), tr.Dropped(), host)
	writeSelfTimes(&tb, table)
	fmt.Fprintf(&tb, "# tracing overhead: %.1f ops/s untraced, %.1f ops/s traced (%.1f%%)\n",
		untracedRate, tracedRate, layer["trace.overhead_pct"])
	for _, line := range sanity(c.workload, table, layer) {
		fmt.Fprintf(&tb, "# sanity: %s\n", line)
	}
	if err := os.WriteFile(base+".selftime.txt", []byte(tb.String()), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprint(w, tb.String())
	for _, s := range perLayer {
		fmt.Fprintf(w, "  %-34s %16.4f %-10s n=%d\n", s.name, layer[s.name], s.unit, traced.count(s.name))
	}
	fmt.Fprintf(w, "trace: %s.trace.json, table: %s.selftime.txt\n", base, base)
	return res, nil
}

// measure runs the closed loop for the given seconds, at least one
// operation: operation i+1 starts when operation i has returned. tr nil
// is an untraced pass.
func measure(fx fixture, seconds float64, tr *telemetry.Tracer) *meter {
	runtime.GC()
	m := newMeter(tr)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		fx.op(m, i)
	}
	m.elapsed = time.Since(start)
	m.finish()
	return m
}

// hostContext describes the machine a result came from, so results can be
// compared across hosts.
func hostContext(c *config) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	ctx := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"workload":   c.workload,
	}
	b, _ := json.Marshal(ctx) // a map of plain values always marshals
	return string(b)
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the p-th percentile of xs by linear interpolation between
// order statistics (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
