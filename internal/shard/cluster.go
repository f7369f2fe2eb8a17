package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/query"
	"repro/internal/resilience"
)

// ErrShardUnavailable marks a federated query that exhausted every replica
// of some shard. It is the "typed 503" of the fail-operational contract:
// the coordinator either assembles a byte-exact result or fails with this
// error — it never merges a partial set with holes in it.
var ErrShardUnavailable = errors.New("shard: no replica available")

// ErrWorkerDown is the per-attempt failure a killed worker reports; it
// rides the retry path and only surfaces (wrapped in ErrShardUnavailable)
// when no replica is left.
var ErrWorkerDown = errors.New("shard: worker is down")

// Hooks observe coordinator events. The serving layer wires them to
// metrics; the zero value observes nothing. Hooks are called outside all
// coordinator locks and must be safe for concurrent use.
type Hooks struct {
	// Scatter is called once per federated query with the number of shard
	// subqueries fanned out.
	Scatter func(shards int)
	// Retry is called once per subquery attempt that failed and was
	// handed to the next replica.
	Retry func()
	// Merge is called once per successful query with the time the
	// deterministic merge took on the cluster clock.
	Merge func(d time.Duration)
}

// Config sizes a Cluster.
type Config struct {
	// Shards is the number of partition-aligned shards each placed study
	// is split into (default 4).
	Shards int
	// Workers is the number of in-process shard workers (default =
	// Shards).
	Workers int
	// Replicas is how many workers hold each shard, primary first
	// (default 2, capped at Workers).
	Replicas int
	// Vnodes per worker on the consistent-hash ring (default 16).
	Vnodes int
	// Chaos optionally injects faults at the shard.scatter and
	// shard.merge points; nil means never.
	Chaos chaos.Injector
	// Clock times merges and serves injected scatter latency; nil means
	// the wall clock.
	Clock resilience.Clock
	// Hooks observe scatter/retry/merge events.
	Hooks Hooks
}

// worker is one in-process shard holder. A worker models a node: it holds
// zero-copy frame views for the shards placed on it and can be killed and
// revived to exercise the retry path (a killed worker fails every attempt
// with ErrWorkerDown, exactly like a node that stopped answering).
type worker struct {
	id    int
	mu    sync.RWMutex
	views map[string]*query.FrameSet // placement key "study/shard=i" → view
	down  bool
}

func (w *worker) place(key string, fs *query.FrameSet) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.views[key] = fs
}

func (w *worker) drop(keys []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, k := range keys {
		delete(w.views, k)
	}
}

func (w *worker) setDown(down bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.down = down
}

// exec runs one shard subquery on this worker.
func (w *worker) exec(key string, q *query.Query) (*query.Partial, error) {
	w.mu.RLock()
	fs, ok := w.views[key]
	down := w.down
	w.mu.RUnlock()
	if down {
		return nil, fmt.Errorf("%w (worker %d)", ErrWorkerDown, w.id)
	}
	if !ok {
		return nil, fmt.Errorf("shard: worker %d has no placement %q", w.id, key)
	}
	return query.ExecPartial(fs, q)
}

// placement records where one study's shards live.
type placement struct {
	fs       *query.FrameSet // the unsharded frames, for merge-time compile
	replicas [][]int         // replicas[i] = worker ids holding shard i, primary first
}

// Cluster is the federation coordinator: it places studies across workers
// and scatter-gathers queries over them.
type Cluster struct {
	cfg     Config
	ring    *Ring
	workers []*worker

	mu         sync.Mutex
	placements map[string]*placement
}

// New builds a cluster of in-process shard workers.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 4
	}
	if cfg.Workers < 1 {
		cfg.Workers = cfg.Shards
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > cfg.Workers {
		cfg.Replicas = cfg.Workers
	}
	if cfg.Chaos == nil {
		cfg.Chaos = chaos.None
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.WallClock{}
	}
	c := &Cluster{
		cfg:        cfg,
		ring:       NewRing(cfg.Workers, cfg.Vnodes),
		workers:    make([]*worker, cfg.Workers),
		placements: make(map[string]*placement),
	}
	for i := range c.workers {
		c.workers[i] = &worker{id: i, views: make(map[string]*query.FrameSet)}
	}
	return c, nil
}

// Workers reports the worker count.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// Shards reports the per-study shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// placementKey names one shard of one study on the ring and in worker
// view maps.
func placementKey(study string, shard int) string {
	return fmt.Sprintf("%s/shard=%d", study, shard)
}

// Place splits the study's frames into shards and places each on its
// ring-assigned replica workers. Placing an already-placed study is a
// cheap no-op, so callers can place lazily on first query.
func (c *Cluster) Place(study string, fs *query.FrameSet) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.placements[study]; ok {
		return nil
	}
	views, err := Split(fs, c.cfg.Shards)
	if err != nil {
		return err
	}
	pl := &placement{fs: fs, replicas: make([][]int, c.cfg.Shards)}
	for i, view := range views {
		key := placementKey(study, i)
		workers := c.ring.Sequence(key, c.cfg.Replicas)
		pl.replicas[i] = workers
		for _, wid := range workers {
			c.workers[wid].place(key, view)
		}
	}
	c.placements[study] = pl
	return nil
}

// Placed reports whether the study is currently placed.
func (c *Cluster) Placed(study string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.placements[study]
	return ok
}

// Evict drops the study's shards from every worker, releasing the frame
// views. The serving layer calls this from its registry eviction hook.
func (c *Cluster) Evict(study string) {
	c.mu.Lock()
	pl, ok := c.placements[study]
	if ok {
		delete(c.placements, study)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	keys := make([]string, len(pl.replicas))
	for i := range pl.replicas {
		keys[i] = placementKey(study, i)
	}
	for _, w := range c.workers {
		w.drop(keys)
	}
}

// KillWorker marks a worker down: every subsequent attempt against it
// fails with ErrWorkerDown and retries on the next replica.
func (c *Cluster) KillWorker(id int) {
	if id >= 0 && id < len(c.workers) {
		c.workers[id].setDown(true)
	}
}

// ReviveWorker brings a killed worker back.
func (c *Cluster) ReviveWorker(id int) {
	if id >= 0 && id < len(c.workers) {
		c.workers[id].setDown(false)
	}
}

// subResult is one shard's gathered outcome.
type subResult struct {
	partial *query.Partial
	err     error
}

// Query scatter-gathers q across the study's shards and merges the
// partials deterministically: shard order, then partition order within
// each shard — the exact global partition sequence of a single-process
// scan, so the result is byte-identical to unsharded execution. Each
// shard attempt may fail (killed worker, injected fault, attempt panic);
// the coordinator retries on the next replica and fails the whole query
// with ErrShardUnavailable only when some shard has no replica left. It
// never merges an incomplete partial set.
func (c *Cluster) Query(ctx context.Context, study string, q *query.Query) (*query.Result, error) {
	c.mu.Lock()
	pl, ok := c.placements[study]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("shard: study %q is not placed", study)
	}

	if c.cfg.Hooks.Scatter != nil {
		c.cfg.Hooks.Scatter(len(pl.replicas))
	}
	results := make([]subResult, len(pl.replicas))
	if c.cfg.Chaos != chaos.None {
		// An armed injector serializes the scatter so the shard.scatter
		// hit ordinals — and therefore the fired-event log — replay
		// identically from a seed. Result bytes never depend on scatter
		// concurrency (the merge order is fixed either way); only chaos
		// replay needs the Fire sequence itself to be deterministic, the
		// same contract internal/ingest documents for Workers=1.
		for i := range pl.replicas {
			results[i] = c.runShard(ctx, study, i, pl.replicas[i], q)
		}
	} else {
		var wg sync.WaitGroup
		for i := range pl.replicas {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = c.runShard(ctx, study, i, pl.replicas[i], q)
			}(i)
		}
		wg.Wait()
	}

	partials := make([]*query.Partial, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	for i, r := range results {
		partials[i] = r.partial
	}

	if f := c.cfg.Chaos.Fire(chaos.PointMerge); f != nil {
		switch f.Kind {
		case chaos.KindLatency:
			if err := c.cfg.Clock.Sleep(ctx, f.Latency); err != nil {
				return nil, err
			}
		case chaos.KindPanic:
			panic(chaos.PanicValue{Point: chaos.PointMerge})
		default:
			return nil, chaos.Injected(chaos.PointMerge, f)
		}
	}
	start := c.cfg.Clock.Now()
	res, err := query.MergeRun(pl.fs, q, partials)
	if err != nil {
		return nil, err
	}
	if c.cfg.Hooks.Merge != nil {
		c.cfg.Hooks.Merge(c.cfg.Clock.Now().Sub(start))
	}
	return res, nil
}

// runShard drives one shard subquery through its replica chain.
func (c *Cluster) runShard(ctx context.Context, study string, shard int, replicas []int, q *query.Query) subResult {
	key := placementKey(study, shard)
	var lastErr error
	for attempt, wid := range replicas {
		if err := ctx.Err(); err != nil {
			// The caller is gone; retrying replicas would be busywork.
			return subResult{err: err}
		}
		if attempt > 0 && c.cfg.Hooks.Retry != nil {
			c.cfg.Hooks.Retry()
		}
		pt, err := c.attempt(ctx, key, wid, q)
		if err == nil {
			return subResult{partial: pt}
		}
		lastErr = err
		if errors.Is(err, query.ErrInvalid) || errors.Is(err, query.ErrTooExpensive) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Refused specs fail identically everywhere, and a dead parent
			// context means nobody is waiting: both are non-retryable.
			return subResult{err: err}
		}
	}
	return subResult{err: fmt.Errorf("%w: shard %d of %s after %d attempt(s): %w",
		ErrShardUnavailable, shard, study, len(replicas), lastErr)}
}

// attempt runs one shard subquery on one worker, containing attempt-level
// panics (a panicking replica is a failed replica, not a dead daemon).
func (c *Cluster) attempt(ctx context.Context, key string, wid int, q *query.Query) (pt *query.Partial, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: attempt on worker %d panicked: %v", wid, r)
		}
	}()
	if f := c.cfg.Chaos.Fire(chaos.PointScatter); f != nil {
		switch f.Kind {
		case chaos.KindLatency:
			// The attempt still proceeds — just late, on the cluster clock.
			if err := c.cfg.Clock.Sleep(ctx, f.Latency); err != nil {
				return nil, err
			}
		case chaos.KindPanic:
			panic(chaos.PanicValue{Point: chaos.PointScatter})
		default:
			// Error and cancel kinds both read as "this replica's answer
			// never arrived" — a typed transient the retry chain absorbs.
			return nil, chaos.Injected(chaos.PointScatter, f)
		}
	}
	return c.workers[wid].exec(key, q)
}
