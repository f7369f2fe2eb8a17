package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a call into the layer's public API.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Op     int     `json:"op"`     // the root span's ID: spans of one op share it
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Beside marks a call made next to the op on the same input, after the
	// op's timed window, to time a layer the op reaches only from inside
	// another layer (cite inside the report render, synth inside
	// repro.NewStudy, the engine inside whpcd).
	Beside bool `json:"beside,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: clock.Now()} }

func (t *tracer) now() float64 { return us(clock.Now().Sub(t.epoch)) }

// open starts a span under parent (-1 for a root) and returns its ID;
// beside marks a call made next to parent's op rather than inside it.
func (t *tracer) open(name string, parent int, beside bool) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, Beside: beside})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes span id, renaming it when name is not empty (an op's class
// is known only once its response arrives).
func (t *tracer) endAs(id int, name string) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	if name != "" {
		t.spans[id].Name = name
	}
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, beside bool, fn func() error) (time.Duration, error) {
	id := t.open(name, parent, beside)
	start := clock.Now()
	err := fn()
	d := clock.Now().Sub(start)
	t.end(id)
	return d, err
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n         int
	durations []float64 // µs
	selfs     []float64 // µs: duration minus the part covered by children
}

// summarize groups the spans by name and computes each span's self time:
// its duration minus the union of its (non-beside) children's intervals,
// clipped to its own interval.
func (t *tracer) summarize() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Beside {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.durations = append(st.durations, s.End-s.Start)
		st.selfs = append(st.selfs, s.End-s.Start-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, cur := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// medianMs is the median duration of the named spans in ms (0 if none).
func (st *spanStats) medianMs() float64 {
	if st == nil {
		return 0
	}
	return median(st.durations) / 1000
}

// write saves every span as JSON and prints the per-name table with self
// time, so the span tree can be inspected after the run.
func (t *tracer) write(b *bench, path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.note("trace: %d spans written to %s", n, path)
	sum := t.summarize()
	b.note("  %-48s %8s %12s %12s", "span", "count", "p50_us", "self_p50_us")
	for _, name := range sortedKeys(sum) {
		st := sum[name]
		b.note("  %-48s %8d %12.1f %12.1f", name, st.n, median(st.durations), median(st.selfs))
	}
	b.set("trace.spans", "count", float64(n))
	return nil
}

// traceTarget is what a workload hands the traced run.
type traceTarget struct {
	clients  int
	op       opFunc
	tracedOp func(t *tracer, client, i int) (string, time.Duration, error)
	live     *live // the workload's server; nil when it runs none
	probe    probeInputs
}

// traceRun is the --trace 1 variant of a workload: an untraced window and
// a traced window of equal length back to back (their difference is the
// tracing overhead), the server's counters across both, then the layer
// probes. It sets every per-layer metric and returns the ops attempted and
// failed across both windows.
func (b *bench) traceRun(tt traceTarget) (attempted, failed int, err error) {
	t := newTracer()
	var before map[string]any
	if tt.live != nil {
		if before, err = tt.live.vars(); err != nil {
			return 0, 0, err
		}
	}
	half := b.dur / 2
	plain, err := measure(tt.clients, half, tt.op)
	if err != nil {
		return 0, 0, err
	}
	defer plain.free()
	traced, err := measure(tt.clients, half, func(c, i int) (string, time.Duration, error) { return tt.tracedOp(t, c, i) })
	if err != nil {
		return 0, 0, err
	}
	defer traced.free()
	pw, tw := plain.all(), traced.all()
	attempted, failed = pw.attempted+tw.attempted, pw.failed+tw.failed
	b.note("untraced window:")
	b.report(plain)
	b.note("traced window:")
	b.report(traced)
	b.set("trace.overhead_p50_ms", "ms", tw.p50-pw.p50)
	b.set("trace.overhead_cpu_ms_per_op", "ms", tw.cpuPerOp-pw.cpuPerOp)
	for _, name := range []string{"p50_ms", "p90_ms", "throughput_ops_s", "cpu_ms_per_op"} {
		delete(b.metrics, name)
	}
	if tt.live != nil {
		after, err := tt.live.vars()
		if err != nil {
			return 0, 0, err
		}
		b.serveCounters(before, after)
	}
	if err := b.probeLayers(t, tt.probe, tt.live); err != nil {
		return 0, 0, err
	}
	return attempted, failed, t.write(b, filepath.Join(b.workdir, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed)))
}

// serveCounters sets the serve-layer counter metrics from two snapshots
// of the server's exported counters.
func (b *bench) serveCounters(before, after map[string]any) {
	delta := func(prefix string) float64 {
		sum := 0.0
		for k, v := range after {
			if k == prefix || strings.HasPrefix(k, prefix+"{") {
				sum += num(v) - num(before[k])
			}
		}
		return sum
	}
	hits := delta("whpcd_exhibit_cache_hits_total") + delta("whpcd_exhibit_cache_coalesced_total")
	misses := delta("whpcd_exhibit_cache_misses_total")
	b.set("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	b.set("serve.render_ms", "ms", renderMs(before, after))
	b.set("serve.cache_evictions", "count", delta("whpcd_exhibit_cache_evictions_total"))
	b.set("serve.panics", "count", delta("whpcd_panics_total"))
	b.set("serve.registry_miss_ratio", "ratio", ratio(delta("whpcd_studies_materialized_total"), delta("whpcd_requests_total")))
	b.set("serve.snapshot_loads", "count", delta("whpcd_snapshot_loads_total"))
	b.set("serve.snapshot_fallbacks", "count", delta("whpcd_snapshot_fallbacks_total"))
	b.set("serve.delta_applies", "count", delta("whpcd_delta_applies_total"))
}

// renderMs is the mean render time of exhibit-cache misses between two
// counter snapshots, in ms (0 when nothing rendered).
func renderMs(before, after map[string]any) float64 {
	a, _ := after["whpcd_render_seconds"].(map[string]any)
	p, _ := before["whpcd_render_seconds"].(map[string]any)
	return 1000 * ratio(num(a["sum"])-num(p["sum"]), num(a["count"])-num(p["count"]))
}

// num reads a JSON number (nil for NaN) as float64.
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
