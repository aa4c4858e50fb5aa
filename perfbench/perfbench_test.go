package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/cvedb"
)

// tinyConfig is a one-second, single-set-up run of workload.
func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 1, seconds: 1, trace: trace, out: t.TempDir(), tiny: true}
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and
// traced, and checks that it passes its gates and reports every named
// metric with its unit.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(tinyConfig(t, wl.name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd, true)

			res, err = run(tinyConfig(t, wl.name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer, false)
		})
	}
}

// checkMetrics requires exactly the named metrics, each with its unit,
// and (for end-to-end metrics) a nonzero value.
func checkMetrics(t *testing.T, res *result, want []spec, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, s := range want {
		got, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.name)
		case got.Unit != s.unit || got.Unit == "":
			t.Errorf("metric %s unit %q, want %q", s.name, got.Unit, s.unit)
		case nonzero && got.Value == 0:
			t.Errorf("metric %s is 0", s.name)
		}
	}
}

// withheldPaths publishes every release as the benchmark does and returns
// the request paths of each release's last update entry: its tarball, its
// blob, and the delta that reconstructs it.
func withheldPaths(t *testing.T, seed int64) map[string]bool {
	paths := map[string]bool{}
	for _, rel := range cvedb.Versions {
		dir := t.TempDir()
		if err := publishRelease(dir, rel, signKey(seed)); err != nil {
			t.Fatal(err)
		}
		m, err := channel.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := m.Updates[len(m.Updates)-1]
		paths["/updates/"+e.File] = true
		paths["/blob/"+e.Sha256] = true
		if d := m.DeltaFor(e.Sha256); d != nil {
			paths["/blob/"+d.Sha256] = true
		}
	}
	return paths
}

// TestInjectedFaultFails withholds one update entry from every channel:
// the machines and the follower that need it must register as failed
// operations, not crash and not pass.
func TestInjectedFaultFails(t *testing.T) {
	withheld := withheldPaths(t, 1)
	for _, name := range []string{"subscribe-prebuilt", "publish-follow"} {
		t.Run(name, func(t *testing.T) {
			c := tinyConfig(t, name, false)
			c.fault = func(path string) bool { return withheld[path] }
			var out strings.Builder
			res, err := run(c, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("withheld entry went unnoticed: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if !strings.Contains(out.String(), "404") {
				t.Errorf("failures do not name the withheld fetch:\n%s", out.String())
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics, with their units, that the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if i < len(workloads) && bj.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []entry, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
