package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/cite"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

// probeInputs are the workload's own inputs the layer probes reuse. Zero
// fields are derived from the workload seed.
type probeInputs struct {
	fx    fixture      // snapshot-dir fixture the probe server boots from
	ref   *repro.Study // fx opened in-process
	pool  *specPool    // ad-hoc specs for the engine, shard and serve probes
	churn []fixture    // fixtures of the snapshot and delta probe (default: fx)
}

const (
	reproProbeOps = 3   // repro-layer ops on the fixture's corpus when the workload ran none
	probeSpecs    = 128 // specs the engine, shard and handler probes run
	probeReps     = 5   // repetitions of the split, place and snapshot probes
	handlerReps   = 25  // timed handler calls per named route
	transportReqs = 300 // loopback requests of the transport probe
)

// allocMB is the bytes allocated while fn runs, in MB.
func allocMB(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), err
}

// tracedReproOp is reproOp split at its layer boundaries, plus the layers
// it reaches only from inside another one (synth inside repro.NewStudy,
// cite inside the report render), timed beside it on the same input.
func (b *bench) tracedReproOp(t *tracer, cfg synth.Config) (reproOutput, error) {
	root := t.open("op.reproduce", -1, false)
	var st *repro.Study
	if _, err := t.timed("repro.new_study", root, false, func() (err error) {
		st, err = repro.NewStudyFromConfig(cfg)
		return err
	}); err != nil {
		return reproOutput{}, err
	}
	rep := t.open("report.render", root, false)
	mb, err := allocMB(func() error {
		for _, ex := range st.Exhibits() {
			if _, err := t.timed("report.render."+ex.ID, rep, false, func() error {
				fmt.Fprintf(io.Discard, "\n========== %s ==========\n", ex.Title)
				return ex.Render(io.Discard)
			}); err != nil && !errors.Is(err, core.ErrNotApplicable) {
				return fmt.Errorf("rendering %s: %w", ex.ID, err)
			}
		}
		return nil
	})
	t.end(rep)
	if err != nil {
		return reproOutput{}, err
	}
	b.samples["report.alloc_mb"] = append(b.samples["report.alloc_mb"], mb)
	if _, err := t.timed("query.frames", root, false, func() error { st.Frames(); return nil }); err != nil {
		return reproOutput{}, err
	}
	out := reproOutput{st: st}
	if _, err := t.timed("query.exhibits", root, false, func() error {
		for _, eq := range repro.ExhibitQueries() {
			res, err := st.Query(eq.Query)
			if err != nil {
				return fmt.Errorf("exhibit query %s: %w", eq.Name, err)
			}
			csv, err := res.CSV()
			if err != nil {
				return err
			}
			out.csvs = append(out.csvs, csv)
		}
		return nil
	}); err != nil {
		return reproOutput{}, err
	}
	t.end(root)

	var corpus *synth.Corpus
	if _, err := t.timed("synth.generate", root, true, func() error {
		mb, err = allocMB(func() (err error) {
			corpus, err = synth.Generate(cfg)
			return err
		})
		return err
	}); err != nil {
		return reproOutput{}, err
	}
	b.samples["synth.alloc_mb"] = append(b.samples["synth.alloc_mb"], mb)
	var g *cite.Graph
	if _, err := t.timed("cite.synthesize", root, true, func() error { g = cite.Synthesize(corpus.Data); return nil }); err != nil {
		return reproOutput{}, err
	}
	_, err = t.timed("cite.analyze", root, true, func() error { _, err := cite.Analyze(corpus.Data, g); return err })
	return out, err
}

// tracedAPIOp sends op k of the api mix inside a root span; after a query
// miss it runs the same spec through the engine's public functions beside
// the op (parse, run, encode on the in-process reference study).
func (b *bench) tracedAPIOp(t *tracer, l *live, in *apiInputs, k int) (string, time.Duration, error) {
	root := t.open("op", -1, false)
	httpSpan := t.open("serve.http", root, false)
	class, took, err := b.apiOp(l, in, k)
	t.end(httpSpan)
	t.endAs(root, "op."+class)
	if err != nil || class != "query_miss" {
		return class, took, err
	}
	_, _, err = engineCalls(t, root, in.ref, in.pool.specs[k])
	return class, took, err
}

// engineCalls runs one spec through query.Parse, query.Run and
// Result.Encode beside an op, returning the result and the bytes the
// two engine calls allocated.
func engineCalls(t *tracer, parent int, st *repro.Study, s poolSpec) (*query.Result, float64, error) {
	var q *query.Query
	if _, err := t.timed("query.parse", parent, true, func() (err error) { q, err = query.Parse(s.body); return err }); err != nil {
		return nil, 0, err
	}
	var res *query.Result
	var out []byte
	mb, err := allocMB(func() error {
		if _, err := t.timed("query.run", parent, true, func() (err error) { res, err = query.Run(st.Frames(), q); return err }); err != nil {
			return err
		}
		_, err := t.timed("query.encode", parent, true, func() (err error) { out, _, err = res.Encode(q.Format); return err })
		return err
	})
	if err == nil && !bytes.Equal(out, s.want) {
		err = fmt.Errorf("engine output differs from the pool reference for %s", s.body)
	}
	return res, mb, err
}

// probeLayers times every layer's public functions on the workload's
// inputs and sets the per-layer metrics. Layers the workload keeps idle
// are measured here too, so every traced run reports every layer.
func (b *bench) probeLayers(t *tracer, pi probeInputs, wl *live) error {
	var err error
	if pi.fx.base == "" {
		fxs, err := b.fixtures(1)
		if err != nil {
			return err
		}
		pi.fx = fxs[0]
	}
	if pi.ref == nil {
		if pi.ref, err = pi.fx.open(); err != nil {
			return err
		}
	}
	if pi.pool == nil {
		if pi.pool, err = buildPool(pi.ref, b.seed, probeSpecs); err != nil {
			return err
		}
	}
	if len(pi.churn) == 0 {
		pi.churn = []fixture{pi.fx}
	}
	specs := pi.pool.specs
	if len(specs) > probeSpecs {
		specs = specs[:probeSpecs]
	}
	if len(b.samples["synth.alloc_mb"]) == 0 {
		for i := 0; i < reproProbeOps; i++ {
			if _, err := b.tracedReproOp(t, synth.FlagshipSeries(pi.fx.seed)); err != nil {
				return err
			}
		}
	}
	sum := t.summarize()
	for _, name := range []string{"synth.generate", "cite.synthesize", "cite.analyze", "query.frames", "query.exhibits", "report.render"} {
		b.set(name+"_ms", "ms", sum[name].medianMs())
	}
	for _, ex := range pi.ref.Exhibits() {
		b.set("report.render_ms."+ex.ID, "ms", sum["report.render."+ex.ID].medianMs())
	}
	b.set("synth.alloc_mb", "MB", median(b.samples["synth.alloc_mb"]))
	b.set("report.alloc_mb", "MB", median(b.samples["report.alloc_mb"]))

	if err := b.probeEngine(t, pi.ref, specs); err != nil {
		return err
	}
	if err := b.probeShard(t, pi.ref, specs); err != nil {
		return err
	}
	if err := b.probeSnapshots(t, pi.churn); err != nil {
		return err
	}
	b.set("delta.unappliable_seeds", "count", float64(b.unappliable))
	return b.probeServe(t, pi, specs, wl)
}

// probeEngine runs each spec once through parse, run and encode.
func (b *bench) probeEngine(t *tracer, st *repro.Study, specs []poolSpec) error {
	root := t.open("probe.engine", -1, false)
	defer t.end(root)
	var allocs, rows []float64
	scanned, resultRows := 0.0, 0.0
	for _, s := range specs {
		res, mb, err := engineCalls(t, root, st, s)
		if err != nil {
			return err
		}
		pt, err := query.ExecPartial(st.Frames(), s.q)
		if err != nil {
			return err
		}
		allocs = append(allocs, mb*1024)
		rows = append(rows, float64(len(res.Rows)))
		scanned += float64(pt.Scanned())
		resultRows += float64(len(res.Rows))
	}
	sum := t.summarize()
	b.set("query.parse_us", "us", median(sum["query.parse"].durations))
	b.set("query.run_us", "us", median(sum["query.run"].durations))
	b.set("query.encode_us", "us", median(sum["query.encode"].durations))
	b.set("query.alloc_kb", "KB", median(allocs))
	b.set("query.result_rows", "count", median(rows))
	b.set("query.scanned_per_result_row", "ratio", ratio(scanned, resultRows))
	return nil
}

// probeShard times splitting, placing and scatter-gathering the specs on
// a 4-shard in-process cluster, checking every result against the
// single-process bytes.
func (b *bench) probeShard(t *tracer, st *repro.Study, specs []poolSpec) error {
	root := t.open("probe.shard", -1, false)
	defer t.end(root)
	fs := st.Frames()
	for i := 0; i < probeReps; i++ {
		if _, err := t.timed("shard.split", root, false, func() error { _, err := shard.Split(fs, 4); return err }); err != nil {
			return err
		}
	}
	var fanout, retries int
	var merges []float64
	var cl *shard.Cluster
	for i := 0; i < probeReps; i++ {
		if _, err := t.timed("shard.place", root, false, func() (err error) {
			cl, err = shard.New(shard.Config{Shards: 4, Hooks: shard.Hooks{
				Scatter: func(n int) { fanout += n },
				Retry:   func() { retries++ },
				Merge:   func(d time.Duration) { merges = append(merges, us(d)) },
			}})
			if err != nil {
				return err
			}
			return cl.Place("probe", fs)
		}); err != nil {
			return err
		}
	}
	for _, s := range specs {
		var out []byte
		if _, err := t.timed("shard.query", root, false, func() error {
			res, err := cl.Query(context.Background(), "probe", s.q)
			if err != nil {
				return err
			}
			out, _, err = res.Encode(s.q.Format)
			return err
		}); err != nil {
			return err
		}
		if !bytes.Equal(out, s.want) {
			b.mismatch("4-shard result differs from single-process bytes for %s", s.body)
		}
	}
	sum := t.summarize()
	b.set("shard.split_ms", "ms", sum["shard.split"].medianMs())
	b.set("shard.place_ms", "ms", sum["shard.place"].medianMs())
	b.set("shard.query_us", "us", median(sum["shard.query"].durations))
	b.set("shard.overhead_ratio", "ratio", ratio(median(sum["shard.query"].durations), median(sum["query.run"].durations)))
	b.set("shard.fanout_per_query", "count", ratio(float64(fanout), float64(len(merges))))
	b.set("shard.retries", "count", float64(retries))
	b.set("shard.merge_us", "us", median(merges))
	return nil
}

// probeSnapshots opens each fixture's base snapshot, applies its year
// delta and runs the trend query: the materialize path of api_churn.
func (b *bench) probeSnapshots(t *tracer, fxs []fixture) error {
	root := t.open("probe.snapshot", -1, false)
	defer t.end(root)
	var mbps, rowsps []float64
	eq, ok := repro.ExhibitQueryByName("trend")
	if !ok {
		return errors.New("no trend exhibit query")
	}
	for i := 0; i < max(probeReps, len(fxs)); i++ {
		fx := fxs[i%len(fxs)]
		info, err := os.Stat(fx.base)
		if err != nil {
			return err
		}
		var st *repro.Study
		d, err := t.timed("snap.open", root, false, func() (err error) { st, err = repro.OpenSnapshotFile(fx.base); return err })
		if err != nil {
			return err
		}
		mbps = append(mbps, float64(info.Size())/(1<<20)/d.Seconds())
		rows0 := frameRows(st.Frames())
		d, err = t.timed("delta.apply", root, false, func() error { return st.ApplyDeltaFile(fx.deltaPath) })
		if err != nil {
			return err
		}
		rowsps = append(rowsps, float64(frameRows(st.Frames())-rows0)/d.Seconds())
		if _, err := t.timed("query.trend", root, false, func() error { _, err := st.Query(eq.Query); return err }); err != nil {
			return err
		}
	}
	sum := t.summarize()
	b.set("snap.open_ms", "ms", sum["snap.open"].medianMs())
	b.set("snap.decode_mb_s", "MB/s", median(mbps))
	b.set("delta.apply_ms", "ms", sum["delta.apply"].medianMs())
	b.set("delta.rows_per_s", "rows/s", median(rowsps))
	b.set("query.trend_us", "us", median(sum["query.trend"].durations))
	return nil
}

// frameRows is the total row count across a frame set.
func frameRows(fs *query.FrameSet) int {
	n := 0
	for _, name := range fs.Names() {
		f, _ := fs.Frame(name)
		n += f.NumRows
	}
	return n
}

// probeServe times each route's handler through Handler().ServeHTTP with
// no socket, the loopback transport on top of a cache hit, and the
// held-out known-defect specs, on a probe server booted from the fixture.
// The serve counters come from the workload's server when it ran one.
func (b *bench) probeServe(t *tracer, pi probeInputs, specs []poolSpec, wl *live) error {
	cfg := serve.Config{DefaultSeed: pi.fx.seed, SnapshotDir: b.dir}
	q := "?corpus=" + serve.CorpusFlagship
	routes := []named{
		{"report", "GET", "/v1/report" + q, nil, nil},
		{"trend", "POST", "/v1/trend" + q, []byte(`{"view":"far"}`), nil},
		{"cite", "POST", "/v1/cite" + q, []byte(`{"view":"flow"}`), nil},
		{"csv", "GET", "/v1/csv/far_per_conference" + q, nil, nil},
		{"far", "GET", "/v1/far" + q, nil, nil},
	}
	l, _, err := boot(cfg, func(l *live) error {
		for _, r := range routes {
			if err := l.expect(r.method, r.path, r.body, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("booting probe server: %w", err)
	}
	defer l.stop()
	before, err := l.vars()
	if err != nil {
		return err
	}
	root := t.open("probe.serve", -1, false)
	defer t.end(root)
	h := l.srv.Handler()
	call := func(name string, r named) (time.Duration, error) {
		return t.timed(name, root, false, func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
			if rec.Code/100 != 2 {
				return fmt.Errorf("%s %s: status %d: %s", r.method, r.path, rec.Code, rec.Body.Bytes())
			}
			if r.want != nil && !bytes.Equal(rec.Body.Bytes(), r.want) {
				b.mismatch("%s %s: handler body differs from the in-process reference", r.method, r.path)
			}
			return nil
		})
	}
	for _, s := range specs {
		r := named{"query", "POST", "/v1/query" + q, s.body, s.want}
		l.srv.PurgeExhibitCache()
		if _, err := call("serve.handler.query_miss", r); err != nil {
			return err
		}
		if _, err := call("serve.handler.query_hit", r); err != nil {
			return err
		}
	}
	for _, r := range routes {
		if _, err := call("serve.handler."+r.class, r); err != nil { // re-warm after the purges
			return err
		}
		for i := 0; i < handlerReps; i++ {
			if _, err := call("serve.handler."+r.class, r); err != nil {
				return err
			}
		}
	}
	sum := t.summarize()
	for _, c := range []string{"query_miss", "query_hit", "report", "trend", "cite", "csv", "far"} {
		b.set("serve.handler_us."+c, "us", median(sum["serve.handler."+c].durations))
	}
	hit := specs[0]
	var wire []float64
	for i := 0; i < transportReqs; i++ {
		start := clock.Now()
		if err := l.expect("POST", "/v1/query"+q, hit.body, hit.want); err != nil {
			return err
		}
		wire = append(wire, us(clock.Now().Sub(start)))
	}
	b.set("serve.transport_us", "us", median(wire)-median(sum["serve.handler.query_hit"].durations))
	b.set("serve.defect_5xx", "count", float64(b.defectProbe(l, "/v1/query"+q, pi.pool.defects)))
	after, err := l.vars()
	if err != nil {
		return err
	}
	switch {
	case wl == nil:
		b.serveCounters(before, after)
	case b.metrics["serve.render_ms"].Value == 0:
		// The workload's server rendered nothing in its windows (api_churn:
		// a re-materialized study keeps its cached trend bytes), so render
		// time comes from the probe server's renders.
		b.set("serve.render_ms", "ms", renderMs(before, after))
	}
	return nil
}
