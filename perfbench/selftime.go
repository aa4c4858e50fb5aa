package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gosplice/internal/telemetry"
)

// selfRow is one span name's share of the traced pass.
type selfRow struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus time covered by children
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its child spans cover.
func selfTimes(recs []telemetry.SpanRecord) []selfRow {
	children := map[uint64][]telemetry.SpanRecord{}
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	rows := map[string]*selfRow{}
	for _, r := range recs {
		row := rows[r.Name]
		if row == nil {
			row = &selfRow{name: r.Name}
			rows[r.Name] = row
		}
		d := r.Duration()
		row.count++
		row.total += d
		row.self += d - covered(r, children[r.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is how much of r's interval the union of kids covers.
func covered(r telemetry.SpanRecord, kids []telemetry.SpanRecord) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(r.Start) {
			a = r.Start
		}
		if b.After(r.End) {
			b = r.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSelfTimes prints the table with each row's share of all self time.
func writeSelfTimes(w io.Writer, rows []selfRow) {
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "%-34s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.self) / float64(all)
		}
		fmt.Fprintf(w, "%-34s %8d %12.2f %12.2f %7.1f\n", r.name, r.count, ms(r.total), ms(r.self), share)
	}
}

// share is a span name's fraction of all self time in the table.
func share(rows []selfRow, names ...string) float64 {
	var all, part time.Duration
	for _, r := range rows {
		all += r.self
		for _, n := range names {
			if r.name == n {
				part += r.self
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(part) / float64(all)
}

// sanity cross-checks the traced pass against what each workload is meant
// to stress. The lines are reported, never gated.
func sanity(workload string, rows []selfRow, layer map[string]float64) []string {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "UNEXPECTED"
	}
	var out []string
	switch workload {
	case "create-cold":
		top := ""
		for _, r := range rows {
			if r.name != "create-cold.cycle" {
				top = r.name
				break
			}
		}
		out = append(out, fmt.Sprintf("largest self-time share is %s (%.0f%%), expected srctree.build: %s",
			top, 100*share(rows, top), verdict(top == "srctree.build")))
		channelWork := layer["transport.requests"] + layer["server.manifest_reqs"] + layer["server.blob_reqs"] + layer["journal.appends"]
		out = append(out, fmt.Sprintf("channel layers did %.0f work per op, expected 0: %s", channelWork, verdict(channelWork == 0)))
	case "subscribe-prebuilt":
		out = append(out, fmt.Sprintf("srctree.units_compiled = %.0f per machine, expected 0: %s",
			layer["srctree.units_compiled"], verdict(layer["srctree.units_compiled"] == 0)))
		put := share(rows, "blobcache.put")
		srv := share(rows, "server.manifest", "server.blob", "server.update")
		out = append(out, fmt.Sprintf("blobcache.put %.0f%% and server.* %.0f%% of self time, expected major shares: %s",
			100*put, 100*srv, verdict(put+srv >= 0.3)))
	}
	return out
}
