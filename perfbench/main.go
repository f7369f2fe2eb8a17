// Command perfbench is the whpc/whpcd benchmark: it generates a workload's
// inputs from a seed, drives one of four workloads through the public API,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output.
// See README.md in this directory for the workloads and metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/resilience"
)

// clock is the benchmark's only source of wall time.
var clock resilience.Clock = resilience.WallClock{}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's settings and shared state.
type bench struct {
	seed     uint64
	dur      time.Duration
	trace    bool
	dir      string // scratch directory for generated inputs
	metrics  map[string]metric
	workload string
	workdir  string // persistent directory for trace files
	// samples holds per-op values of the traced run (allocation sizes).
	samples map[string][]float64
	// unappliable counts corpus seeds skipped because their year delta
	// does not apply (see fixtures).
	unappliable int
	// mismatches counts failed output checks; any makes the run incorrect.
	mismatches atomic.Int64
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// note prints an informational line (never the last line of the output).
func (b *bench) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// mismatch records a failed output check.
func (b *bench) mismatch(format string, args ...any) {
	if b.mismatches.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: "+format+"\n", args...)
	}
}

var workloads = map[string]func(*bench) (attempted, failed int, err error){
	"reproduce":   runReproduce,
	"api_query":   func(b *bench) (int, int, error) { return runAPI(b, 0) },
	"api_sharded": func(b *bench) (int, int, error) { return runAPI(b, 4) },
	"api_churn":   runChurn,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: reproduce, api_query, api_sharded or api_churn")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for generated inputs and trace files")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing generated inputs:", err)
		}
	}()
	b := &bench{
		seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dir: dir, metrics: map[string]metric{},
		workload: *workload, workdir: *workdir, samples: map[string][]float64{},
	}
	b.note("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	attempted, failed, err := fn(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		return 1
	}
	if err := b.checkDeclared("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(result{Correct: b.mismatches.Load() == 0, Attempted: attempted, Failed: failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// checkDeclared verifies that the run produced exactly the metrics the
// benchmark declares for its mode (end_to_end, or per_layer when traced),
// each in its declared unit.
func (b *bench) checkDeclared(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the metric declarations: %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	want := decl.EndToEnd
	if b.trace {
		want = decl.PerLayer
	}
	for _, m := range want {
		got, ok := b.metrics[m.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	if len(b.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, %d declared", len(b.metrics), len(want))
	}
	return nil
}

// errCheck marks an op whose output failed its correctness check.
var errCheck = errors.New("output check failed")

// baseSlices is how many equal time slices a window is cut into; CPU time
// is sampled at each slice boundary.
const baseSlices = 20

// maxOpsPerClient bounds one client's records in a window.
const maxOpsPerClient = 1 << 22

// opRecord is one op as its client saw it. It holds no pointers, so the
// records can live outside the Go heap.
type opRecord struct {
	end    time.Duration // completion, from the window start
	took   time.Duration
	class  uint8 // index into the client's class table
	failed bool
}

// clientRecords is one client's ops in a window. The records sit in an
// anonymous mapping outside the Go heap, so the benchmark's bookkeeping
// neither grows the heap the collector paces itself on nor adds to its
// scan work: the GC cost of the code under test does not drift as a run
// records more ops.
type clientRecords struct {
	mem      []byte
	recs     []opRecord
	n        int
	classes  []string
	firstErr error
}

func newClientRecords() (*clientRecords, error) {
	size := maxOpsPerClient * int(unsafe.Sizeof(opRecord{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping op records: %w", err)
	}
	return &clientRecords{mem: mem, recs: unsafe.Slice((*opRecord)(unsafe.Pointer(&mem[0])), maxOpsPerClient)}, nil
}

func (c *clientRecords) add(end, took time.Duration, class string, err error) {
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
	k := slices.Index(c.classes, class)
	if k < 0 {
		k = len(c.classes)
		c.classes = append(c.classes, class)
	}
	c.recs[c.n] = opRecord{end: end, took: took, class: uint8(k), failed: err != nil}
	c.n++
}

func (c *clientRecords) full() bool { return c.n == len(c.recs) }

// loop is the outcome of one closed-loop measurement window.
type loop struct {
	clients []*clientRecords
	wall    time.Duration
	cpu     [baseSlices + 1]time.Duration // process CPU time at each slice boundary
	slice   time.Duration
}

// ops is the number of ops recorded across clients.
func (l loop) ops() int {
	n := 0
	for _, c := range l.clients {
		n += c.n
	}
	return n
}

// free releases the op records.
func (l loop) free() {
	for _, c := range l.clients {
		_ = syscall.Munmap(c.mem) // only fails for a mapping this package did not make
	}
}

// opFunc runs op number i of one client's fixed sequence and returns its
// class label. It must report its own latency window: the returned
// duration covers the op only, not any output check that follows it.
type opFunc func(client, i int) (class string, took time.Duration, err error)

// measure runs clients closed-loop clients for d: each sends its next op
// only after the previous one returned. Ops follow each client's fixed
// sequence, so two runs of one seed issue the same ops in the same order.
func measure(clients int, d time.Duration, op opFunc) (loop, error) {
	l := loop{slice: d / baseSlices}
	for c := 0; c < clients; c++ {
		cr, err := newClientRecords()
		if err != nil {
			l.free()
			return loop{}, err
		}
		l.clients = append(l.clients, cr)
	}
	start := clock.Now()
	l.cpu[0] = cpuTime()
	deadline := start.Add(d)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(cr *clientRecords, c int) {
			defer func() { done <- struct{}{} }()
			for i := 0; clock.Now().Before(deadline) && !cr.full(); i++ {
				class, took, err := op(c, i)
				cr.add(clock.Now().Sub(start), took, class, err)
			}
		}(l.clients[c], c)
	}
	// Sample CPU time at every slice boundary while the clients run; the
	// last sample is taken once every client has stopped.
	for k := 1; k < baseSlices; k++ {
		if err := clock.Sleep(context.Background(), start.Add(time.Duration(k)*l.slice).Sub(clock.Now())); err != nil {
			break
		}
		l.cpu[k] = cpuTime()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	l.cpu[baseSlices] = cpuTime()
	l.wall = clock.Now().Sub(start)
	for c, cr := range l.clients {
		if cr.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: first failed op: %v\n", c, cr.firstErr)
		}
	}
	return l, nil
}

// warmUp runs the first n ops of every client's sequence untimed, so the
// caches and the heap reach their steady state before measure starts;
// measure then continues each sequence where the warm-up left it.
func warmUp(clients, n int, op opFunc) error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < n; i++ {
				if _, _, err := op(c, i); err != nil {
					errs <- fmt.Errorf("warm-up op %d of client %d: %w", i, c, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// window summarizes a set of ops.
type window struct {
	lat        []float64            // latency of successful ops, ms
	byClass    map[string][]float64 // latency by class, ms
	attempted  int
	failed     int
	busy       time.Duration // summed client time inside ops
	p50, p90   float64
	throughput float64 // completed ops per second of client time inside ops, summed over clients
	cpuPerOp   float64 // ms of process CPU per attempted op
}

// summarize reduces the ops that completed in [lo, hi) to a window;
// cpu is the process CPU time spent over that interval.
func (l loop) summarize(lo, hi, cpu time.Duration) window {
	w := window{byClass: map[string][]float64{}}
	for _, c := range l.clients {
		for _, o := range c.recs[:c.n] {
			if o.end < lo || o.end >= hi {
				continue
			}
			w.attempted++
			w.busy += o.took
			if o.failed {
				w.failed++
				continue
			}
			v := ms(o.took)
			w.lat = append(w.lat, v)
			w.byClass[c.classes[o.class]] = append(w.byClass[c.classes[o.class]], v)
		}
	}
	w.p50, w.p90 = quantile(w.lat, 0.5), quantile(w.lat, 0.9)
	if w.busy > 0 {
		w.throughput = float64(len(w.lat)*len(l.clients)) / w.busy.Seconds()
	}
	w.cpuPerOp = ms(cpu) / float64(max(w.attempted, 1))
	return w
}

// bySlice cuts the window into the most equal time slices (a divisor of
// baseSlices) that still leave each slice about 100 ops, so a slice's p90
// has about ten samples beyond it. Ops that end after the window's last
// boundary count in the last slice.
func (l loop) bySlice() []window {
	n := 1
	for _, k := range []int{20, 10, 5, 4, 2} {
		if l.ops() >= 100*k {
			n = k
			break
		}
	}
	per := baseSlices / n
	out := make([]window, n)
	for i := range out {
		lo, hi := l.slice*time.Duration(i*per), l.slice*time.Duration((i+1)*per)
		if i == n-1 {
			hi = 1<<63 - 1
		}
		out[i] = l.summarize(lo, hi, l.cpu[(i+1)*per]-l.cpu[i*per])
	}
	return out
}

// all summarizes the whole window.
func (l loop) all() window {
	return l.summarize(0, 1<<63-1, l.cpu[baseSlices]-l.cpu[0])
}

// report sets the end-to-end latency, throughput and CPU metrics of a
// window: each is the median of its per-slice values, so a burst of
// outside load in one slice does not move it. It prints the whole-window
// figures with each percentile's sample count, and returns the ops
// attempted and failed.
func (b *bench) report(l loop) (attempted, failed int) {
	sl := l.bySlice()
	pick := func(f func(window) float64) float64 {
		v := make([]float64, len(sl))
		for i, w := range sl {
			v[i] = f(w)
		}
		return median(v)
	}
	b.set("p50_ms", "ms", pick(func(w window) float64 { return w.p50 }))
	b.set("p90_ms", "ms", pick(func(w window) float64 { return w.p90 }))
	b.set("throughput_ops_s", "1/s", pick(func(w window) float64 { return w.throughput }))
	b.set("cpu_ms_per_op", "ms", pick(func(w window) float64 { return w.cpuPerOp }))
	w := l.all()
	b.note("window: %d ops (%d failed), %d clients, %s wall; median over %d slices of ~%d ops each",
		w.attempted, w.failed, len(l.clients), l.wall.Round(time.Millisecond), len(sl), w.attempted/len(sl))
	b.note("  whole window: p50=%.4fms (n=%d) p90=%.4fms (%d samples beyond) throughput=%.2f/s cpu/op=%.4fms",
		w.p50, len(w.lat), w.p90, tailCount(len(w.lat), 0.9), w.throughput, w.cpuPerOp)
	for i, s := range sl {
		b.note("  slice %d: n=%d p50=%.4fms p90=%.4fms throughput=%.2f/s cpu/op=%.4fms", i, len(s.lat), s.p50, s.p90, s.throughput, s.cpuPerOp)
	}
	for _, c := range sortedKeys(w.byClass) {
		v := w.byClass[c]
		b.note("  class %-16s n=%-7d p50=%.4fms p90=%.4fms", c, len(v), quantile(v, 0.5), quantile(v, 0.9))
	}
	return w.attempted, w.failed
}

// liveHeap sets live_heap_mb: the heap still reachable after a forced GC
// at the end of the run, with keep (the server or study) still alive.
func (b *bench) liveHeap(keep any) {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	runtime.KeepAlive(keep)
	b.set("live_heap_mb", "MB", float64(st.HeapAlloc)/(1<<20))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based index of the nearest-rank q-quantile of n samples.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// tailCount is how many of n samples lie above the q-quantile.
func tailCount(n int, q float64) int { return n - 1 - rank(n, q) }

// median is the middle value of v, averaging the two middle ones.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// splitmix derives the i-th 64-bit value of a seed's stream.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
