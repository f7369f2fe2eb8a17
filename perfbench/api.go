package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

// setupBoots is how many fresh servers a run boots to time set-up; the
// median is reported, and the last boot serves the measured traffic.
const setupBoots = 7

// poolSize is the number of distinct ad-hoc specs, larger than the
// server's 256-entry exhibit cache so both hits and misses occur.
const poolSize = 512

// apiWarmOps is the untimed traffic each api client sends before the
// measured window: enough misses to fill both the exhibit cache and its
// equally sized stale store, after which hit ratio and heap are steady.
const apiWarmOps = 4000

// live is one booted in-process whpcd on a loopback listener.
type live struct {
	srv    *serve.Server
	reg    *obs.Registry
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// boot starts a server from cfg and runs warm before returning; the
// returned duration covers serve.New through the last warm-up response.
func boot(cfg serve.Config, warm func(*live) error) (*live, time.Duration, error) {
	start := clock.Now()
	cfg.Metrics = obs.NewRegistry()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &live{
		srv: srv, reg: cfg.Metrics, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
	}
	go func() { l.done <- srv.Serve(ctx, ln) }()
	if err := warm(l); err != nil {
		l.stop()
		return nil, 0, err
	}
	return l, clock.Now().Sub(start), nil
}

// stop drains the server and waits for it to return.
func (l *live) stop() {
	l.cancel()
	<-l.done
	l.client.CloseIdleConnections()
}

// do sends one request and reads the whole response.
func (l *live) do(method, path string, body []byte) (status int, cache string, out []byte, err error) {
	req, err := http.NewRequest(method, l.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer func() { _ = resp.Body.Close() }() // only read; a close error changes nothing
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// expect sends one request and checks it answers 2xx with want.
func (l *live) expect(method, path string, body, want []byte) error {
	status, _, out, err := l.do(method, path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, out)
	}
	if want != nil && !bytes.Equal(out, want) {
		return fmt.Errorf("%s %s: body differs from the in-process reference", method, path)
	}
	return nil
}

// vars snapshots the server's exported counters (the /debug/vars view).
func (l *live) vars() (map[string]any, error) {
	var buf bytes.Buffer
	if err := l.reg.WriteVars(&buf); err != nil {
		return nil, err
	}
	v := map[string]any{}
	return v, json.Unmarshal(buf.Bytes(), &v)
}

// named is one fixed-route request of the api traffic mix.
type named struct {
	class, method, path string
	body, want          []byte
}

// apiInputs is everything an api run sends and checks against.
type apiInputs struct {
	fx    fixture
	ref   *repro.Study
	pool  *specPool
	named []named
	q     string // study query string, ?corpus=flagship
}

// buildAPIInputs writes the snapshot dir and derives the pool and the
// expected bytes of every route, before any clock starts.
func buildAPIInputs(b *bench) (*apiInputs, error) {
	fxs, err := b.fixtures(1)
	if err != nil {
		return nil, err
	}
	fx := fxs[0]
	ref, err := fx.open()
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(ref, b.seed, poolSize)
	if err != nil {
		return nil, err
	}
	in := &apiInputs{fx: fx, ref: ref, pool: pool, q: "?corpus=" + serve.CorpusFlagship}
	var rep bytes.Buffer
	if err := ref.WriteReport(&rep); err != nil {
		return nil, err
	}
	trend, err := exhibitCSV(ref, "trend")
	if err != nil {
		return nil, err
	}
	flow, err := exhibitCSV(ref, "cite_flow")
	if err != nil {
		return nil, err
	}
	in.named = []named{
		{"report", "GET", "/v1/report" + in.q, nil, rep.Bytes()},
		{"trend", "POST", "/v1/trend" + in.q, []byte(`{"view":"far"}`), trend},
		{"cite", "POST", "/v1/cite" + in.q, []byte(`{"view":"flow"}`), flow},
		// The far body is a serve-layer JSON view with no in-process twin;
		// every response must equal the first one.
		{"far", "GET", "/v1/far" + in.q, nil, nil},
	}
	for _, e := range report.CSVExports(ref.Dataset()) {
		want, err := exportCSV(e)
		if err != nil {
			return nil, err
		}
		in.named = append(in.named, named{"csv", "GET", "/v1/csv/" + e.Name + in.q, nil, want})
	}
	b.note("inputs: corpus seed %d, %d ad-hoc specs (%d generated specs dropped as invalid or empty, %d known-defect specs held out), %d named routes",
		fx.seed, len(pool.specs), pool.dropped, len(pool.defects), len(in.named))
	return in, nil
}

// warm materializes the study and fills the named-route cache; in cluster
// mode one ad-hoc query also places the study's shards.
func (in *apiInputs) warm(l *live) error {
	for i := range in.named {
		n := &in.named[i]
		if n.want == nil {
			status, _, out, err := l.do(n.method, n.path, n.body)
			if err != nil {
				return err
			}
			if status != http.StatusOK || !bytes.Contains(out, []byte(`"per_conference"`)) {
				return fmt.Errorf("%s: status %d, unexpected body", n.path, status)
			}
			n.want = out
			continue
		}
		if err := l.expect(n.method, n.path, n.body, n.want); err != nil {
			return err
		}
	}
	s := in.pool.specs[0]
	return l.expect("POST", "/v1/query"+in.q, s.body, s.want)
}

// Popularity of the ad-hoc specs: p(k) ∝ (zipfV+k)^-zipfS. The offset
// flattens the head so no single spec carries more than ~2% of the traffic
// (the hot set spans many specs, which keeps one seed's figures close to
// another's), and with 512 specs against the 256-entry cache about a
// quarter of ad-hoc queries miss.
const (
	zipfS = 1.1
	zipfV = 20
)

// trafficSeq is one client's fixed op sequence: Zipf-popular ad-hoc specs
// with a fixed share of named routes, drawn lazily from the client's seed.
type trafficSeq struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newTrafficSeq(seed uint64, client, n int) *trafficSeq {
	r := rand.New(rand.NewPCG(seed, uint64(client)+1))
	return &trafficSeq{r: r, zipf: rand.NewZipf(r, zipfS, zipfV, uint64(n-1))}
}

// next returns the next op: a pool index, or -1-k for named route k.
func (t *trafficSeq) next(named int) int {
	if t.r.IntN(100) < 85 {
		return int(t.zipf.Uint64())
	}
	return -1 - t.r.IntN(named)
}

// apiOp sends op k of the api mix and checks the response.
func (b *bench) apiOp(l *live, in *apiInputs, k int) (string, time.Duration, error) {
	method, path, body, want, class := "POST", "/v1/query"+in.q, []byte(nil), []byte(nil), ""
	if k >= 0 {
		s := in.pool.specs[k]
		body, want = s.body, s.want
	} else {
		n := in.named[-1-k]
		method, path, body, want, class = n.method, n.path, n.body, n.want, n.class
	}
	start := clock.Now()
	status, cache, out, err := l.do(method, path, body)
	took := clock.Now().Sub(start)
	if err != nil {
		return "", took, err
	}
	if status/100 != 2 {
		return "", took, fmt.Errorf("%s %s: status %d", method, path, status)
	}
	if !bytes.Equal(out, want) {
		b.mismatch("%s %s (%s): body differs from the in-process reference", method, path, body)
		return "", took, errCheck
	}
	if class == "" {
		class = "query_" + cache
	}
	return class, took, nil
}

// runAPI runs api_query (shards == 0) or api_sharded: two closed-loop
// clients on keep-alive loopback HTTP against one in-process server.
func runAPI(b *bench, shards int) (int, int, error) {
	in, err := buildAPIInputs(b)
	if err != nil {
		return 0, 0, err
	}
	cfg := serve.Config{DefaultSeed: in.fx.seed, SnapshotDir: b.dir, ClusterShards: shards}
	l, setups, err := bootMedian(b, cfg, in.warm)
	if err != nil {
		return 0, 0, err
	}
	defer l.stop()
	const clients = 2
	seqs := make([]*trafficSeq, clients)
	for c := range seqs {
		seqs[c] = newTrafficSeq(b.seed, c, len(in.pool.specs))
	}
	op := func(c, _ int) (string, time.Duration, error) {
		return b.apiOp(l, in, seqs[c].next(len(in.named)))
	}
	if err := warmUp(clients, apiWarmOps, op); err != nil {
		return 0, 0, err
	}
	if b.trace {
		return b.traceRun(traceTarget{
			clients: clients, op: op, live: l,
			tracedOp: func(t *tracer, c, i int) (string, time.Duration, error) {
				return b.tracedAPIOp(t, l, in, seqs[c].next(len(in.named)))
			},
			probe: probeInputs{fx: in.fx, ref: in.ref, pool: in.pool},
		})
	}
	b.set("setup_s", "s", median(setups))
	// The op records are dropped before the heap is measured.
	res, err := measure(clients, b.dur, op)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed := b.report(res)
	res.free()
	b.defectProbe(l, "/v1/query"+in.q, in.pool.defects)
	b.liveHeap(l)
	return attempted, failed, nil
}

// bootMedian boots setupBoots fresh servers, keeps the last one running,
// and returns every boot's set-up time in seconds.
func bootMedian(b *bench, cfg serve.Config, warm func(*live) error) (*live, []float64, error) {
	var setups []float64
	var l *live
	for i := 0; i < setupBoots; i++ {
		if l != nil {
			l.stop()
		}
		var d time.Duration
		var err error
		l, d, err = boot(cfg, warm)
		if err != nil {
			return nil, nil, fmt.Errorf("booting server: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.note("setup: %d boots, median %.4fs (min %.4fs, max %.4fs)", len(setups), median(setups), quantile(setups, 0), quantile(setups, 1))
	return l, setups, nil
}

// defectProbe sends the held-out known-defect specs to path once,
// outside any timed window, and returns how many the server failed with a
// 5xx.
func (b *bench) defectProbe(l *live, path string, defects [][]byte) int {
	fiveXX := 0
	for _, body := range defects {
		status, _, _, err := l.do("POST", path, body)
		if err != nil || status/100 == 5 {
			fiveXX++
		}
	}
	b.note("known-defect probe: %d of %d float-column select specs answered 5xx", fiveXX, len(defects))
	return fiveXX
}

// runChurn runs api_churn: one client cycles POST /v1/trend over more
// flagship seeds than the registry holds, so every request materializes
// its study from the snapshot dir (base snapshot + year delta).
func runChurn(b *bench) (int, int, error) {
	const seeds = 6 // more than the default StudyCap of 4
	fxs, err := b.fixtures(seeds)
	if err != nil {
		return 0, 0, err
	}
	var want [][]byte
	for _, fx := range fxs {
		grown, err := grownStudy(fx.seed)
		if err != nil {
			return 0, 0, err
		}
		w, err := exhibitCSV(grown, "trend")
		if err != nil {
			return 0, 0, err
		}
		want = append(want, w)
	}
	path := func(k int) string {
		return "/v1/trend?corpus=" + serve.CorpusFlagship + "&seed=" + strconv.FormatUint(fxs[k].seed, 10)
	}
	body := []byte(`{"view":"far"}`)
	cfg := serve.Config{DefaultSeed: fxs[0].seed, SnapshotDir: b.dir}
	l, setups, err := bootMedian(b, cfg, func(l *live) error { return l.expect("POST", path(0), body, want[0]) })
	if err != nil {
		return 0, 0, err
	}
	defer l.stop()
	// The seeds cycle in order across warm-up and every window, starting
	// one past the warmed seed, so each op asks for the least recently
	// used study and misses the registry.
	next := 0
	op := func(_, _ int) (string, time.Duration, error) {
		next++
		k := next % seeds
		start := clock.Now()
		status, _, out, err := l.do("POST", path(k), body)
		took := clock.Now().Sub(start)
		if err != nil {
			return "", took, err
		}
		if status != http.StatusOK {
			return "", took, fmt.Errorf("trend seed %d: status %d", fxs[k].seed, status)
		}
		if !bytes.Equal(out, want[k]) {
			b.mismatch("trend seed %d: body differs from the resynthesized grown corpus", fxs[k].seed)
			return "", took, errCheck
		}
		return "trend", took, nil
	}
	if err := warmUp(1, 2*seeds, op); err != nil {
		return 0, 0, err
	}
	if b.trace {
		return b.traceRun(traceTarget{
			clients: 1, op: op, live: l,
			tracedOp: func(t *tracer, c, i int) (string, time.Duration, error) {
				id := t.open("op.trend", -1, false)
				class, took, err := op(c, i)
				t.end(id)
				return class, took, err
			},
			probe: probeInputs{fx: fxs[0], churn: fxs},
		})
	}
	b.set("setup_s", "s", median(setups))
	// The op records are dropped before the heap is measured.
	res, err := measure(1, b.dur, op)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed := b.report(res)
	res.free()
	b.liveHeap(l)
	return attempted, failed, nil
}
