package shard

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/synth"
)

// testFrames builds the frame set for the default 2017 corpus once.
var testFrames, testData = func() (*query.FrameSet, *dataset.Dataset) {
	corpus, err := synth.Generate(synth.Default2017(2021))
	if err != nil {
		panic(err)
	}
	return query.NewFrameSet(corpus.Data), corpus.Data
}()

// welchSpec and chisqSpec extend the exhibit specs with the two compare
// kernels, whose merge-safety (moment and count partials) is the hard
// core of the federation contract.
func welchSpec() *query.Query {
	return &query.Query{
		Frame:   query.FramePapers,
		Where:   []query.Pred{{Col: "lead_known", Op: "eq", Value: true}},
		GroupBy: []query.Key{{Col: "lead_gender"}},
		Aggs:    []query.Agg{{Op: "count", As: "n"}},
		Compare: &query.Compare{Test: "welch", Col: "citations36", Groups: [][]any{{"female"}, {"male"}}},
	}
}

func chisqSpec() *query.Query {
	return &query.Query{
		Frame:   query.FrameSlots,
		GroupBy: []query.Key{{Col: "role"}},
		Aggs: []query.Agg{
			{Op: "count", As: "women", Where: []query.Pred{{Col: "female", Op: "eq", Value: true}}},
			{Op: "count", As: "known", Where: []query.Pred{{Col: "known", Op: "eq", Value: true}}},
		},
		Compare: &query.Compare{Test: "chisq", Num: "women", Den: "known",
			Groups: [][]any{{"PC member"}, {"author"}}},
	}
}

// allSpecs is every repro.ExhibitQueries spec plus the two compare specs.
func allSpecs() []*query.Query {
	var specs []*query.Query
	for _, eq := range repro.ExhibitQueries() {
		specs = append(specs, eq.Query)
	}
	return append(specs, welchSpec(), chisqSpec())
}

// renderJSON renders rows, totals and compare into one comparable byte
// string (JSON carries the compare block; CSV proves row bytes).
func renderJSON(t *testing.T, res *query.Result) []byte {
	t.Helper()
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return append(j, c...)
}

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Place("study", testFrames); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFederatedByteIdentical is the acceptance gate: federated execution
// of every exhibit spec (and both compare kernels) is byte-identical to
// single-process execution for shard counts {1, 2, 4, 8} at GOMAXPROCS 1
// and 8.
func TestFederatedByteIdentical(t *testing.T) {
	specs := allSpecs()
	// Canonical baselines from the unsharded engine, at the default
	// GOMAXPROCS — every variant below must reproduce these bytes.
	baselines := make([][]byte, len(specs))
	for i, q := range specs {
		res, err := query.Run(testFrames, q)
		if err != nil {
			t.Fatalf("baseline spec %d: %v", i, err)
		}
		baselines[i] = renderJSON(t, res)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range []int{1, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, shards := range []int{1, 2, 4, 8} {
			c := mustCluster(t, Config{Shards: shards, Workers: shards, Replicas: 2})
			for i, q := range specs {
				res, err := c.Query(context.Background(), "study", q)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d shards=%d spec %d: %v", gmp, shards, i, err)
				}
				if got := renderJSON(t, res); !bytes.Equal(got, baselines[i]) {
					t.Errorf("GOMAXPROCS=%d shards=%d spec %d: federated result differs from single-process\n--- single\n%s\n--- federated\n%s",
						gmp, shards, i, baselines[i], got)
				}
			}
		}
	}
}

func TestSplitAlignmentAndCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		views, err := Split(testFrames, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(views) != n {
			t.Fatalf("Split(%d) returned %d shards", n, len(views))
		}
		for _, name := range testFrames.Names() {
			full, _ := testFrames.Frame(name)
			total := 0
			for i, v := range views {
				f, ok := v.Frame(name)
				if !ok {
					t.Fatalf("shard %d lost frame %s", i, name)
				}
				if i < n-1 && f.NumRows%query.PartitionRows != 0 && f.NumRows != 0 {
					// Only the last non-empty shard may end off-partition.
					rest := 0
					for _, w := range views[i+1:] {
						g, _ := w.Frame(name)
						rest += g.NumRows
					}
					if rest != 0 {
						t.Errorf("n=%d %s shard %d has unaligned %d rows with %d rows after it", n, name, i, f.NumRows, rest)
					}
				}
				total += f.NumRows
			}
			if total != full.NumRows {
				t.Errorf("n=%d: %s shards cover %d rows, want %d", n, name, total, full.NumRows)
			}
		}
	}
	if _, err := Split(testFrames, 0); err == nil {
		t.Error("Split(0) accepted")
	}
}

func TestKillWorkerRetriesOnReplicaByteIdentical(t *testing.T) {
	q := welchSpec()
	base, err := query.Run(testFrames, q)
	if err != nil {
		t.Fatal(err)
	}
	want := renderJSON(t, base)

	var retries atomic.Int64
	const workers = 4
	c, err := New(Config{
		Shards: workers, Workers: workers, Replicas: 2,
		Hooks: Hooks{Retry: func() { retries.Add(1) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Place("study", testFrames); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		c.KillWorker(w)
		res, err := c.Query(context.Background(), "study", q)
		if err != nil {
			t.Fatalf("kill worker %d: %v", w, err)
		}
		if got := renderJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("kill worker %d: result differs from single-process baseline", w)
		}
		c.ReviveWorker(w)
	}
	// Each shard has exactly one primary; killing that worker costs the
	// shard exactly one retry, and secondaries cost none — so one pass
	// over every worker retries once per shard in total.
	if got := retries.Load(); got != workers {
		t.Errorf("total retries = %d, want %d (one per shard primary)", got, workers)
	}
}

func TestAllReplicasDownIsTypedUnavailable(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Workers: 2, Replicas: 2})
	c.KillWorker(0)
	c.KillWorker(1)
	_, err := c.Query(context.Background(), "study", welchSpec())
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("err = %v, want wrapped ErrWorkerDown cause", err)
	}
}

// TestCompleteCostBoundFederated: the person x person complete cross
// product is refused with query.ErrTooExpensive by every shard, and the
// refusal is not retried on replicas or reported as an unavailable shard.
func TestCompleteCostBoundFederated(t *testing.T) {
	var retries atomic.Int32
	c := mustCluster(t, Config{Shards: 4, Workers: 4, Replicas: 2, Hooks: Hooks{Retry: func() { retries.Add(1) }}})
	q := &query.Query{
		Frame:    query.FrameMembers,
		GroupBy:  []query.Key{{Col: "person"}, {Col: "person", As: "person2"}},
		Aggs:     []query.Agg{{Op: "count", As: "n"}},
		Complete: true,
		Limit:    2,
	}
	_, err := c.Query(context.Background(), "study", q)
	if !errors.Is(err, query.ErrTooExpensive) {
		t.Fatalf("err = %v, want query.ErrTooExpensive", err)
	}
	if errors.Is(err, ErrShardUnavailable) {
		t.Errorf("a refused spec was reported as an unavailable shard: %v", err)
	}
	if got := retries.Load(); got != 0 {
		t.Errorf("%d replica retries for a refused spec, want 0", got)
	}
}

func TestUnplacedStudyFails(t *testing.T) {
	c, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "ghost", welchSpec()); err == nil {
		t.Fatal("query against unplaced study succeeded")
	}
}

func TestEvictDropsPlacement(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Workers: 2})
	if !c.Placed("study") {
		t.Fatal("study not placed")
	}
	c.Evict("study")
	if c.Placed("study") {
		t.Fatal("study still placed after evict")
	}
	if _, err := c.Query(context.Background(), "study", welchSpec()); err == nil {
		t.Fatal("query after evict succeeded")
	}
	// Eviction of an unknown study is a no-op.
	c.Evict("ghost")
	// Re-placement works.
	if err := c.Place("study", testFrames); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "study", welchSpec()); err != nil {
		t.Fatalf("query after re-place: %v", err)
	}
}

func TestCancelledContextAborts(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(ctx, "study", welchSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMergedPartialsEqualPooledStatsOnEverySplit is the merge-safety
// property suite over the fixture corpus: for every two-way split of the
// corpus's papers — including the empty prefix and the single-row prefix —
// merged Welch-t moment partials, chi-squared count partials and mean
// partials agree with internal/stats computed over the pooled sample.
func TestMergedPartialsEqualPooledStatsOnEverySplit(t *testing.T) {
	var women, men []float64
	for _, p := range testData.Papers {
		lead, ok := testData.Person(p.Lead())
		if !ok {
			continue
		}
		switch lead.Gender.String() {
		case "female":
			women = append(women, float64(p.Citations36))
		case "male":
			men = append(men, float64(p.Citations36))
		}
	}
	pooledWelch, err := stats.WelchTTest(women, men)
	if err != nil {
		t.Fatal(err)
	}
	pooledMeanW := stats.MustMean(women)

	// Chi-squared pooled counts: women/known among PC members vs authors.
	pc := testData.CountGenders(testData.RoleSlots(dataset.RolePCMember))
	au := testData.CountGenders(testData.AuthorSlots())
	pooledChi, err := stats.TwoProportionChiSq(pc.Women, pc.Known(), au.Women, au.Known())
	if err != nil {
		t.Fatal(err)
	}

	split := func(xs []float64, cut int) stats.Moments {
		var m stats.Moments
		a, b := stats.MomentsOf(xs[:cut]), stats.MomentsOf(xs[cut:])
		m.Merge(a)
		m.Merge(b)
		return m
	}
	for cut := 0; cut <= len(women); cut++ {
		wm := split(women, cut)
		got, err := stats.WelchTTestFromMoments(wm, stats.MomentsOf(men))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.AlmostEqual(got.T, pooledWelch.T) || !stats.AlmostEqual(got.P, pooledWelch.P) {
			t.Fatalf("cut %d: merged welch (t=%g, p=%g) != pooled (t=%g, p=%g)",
				cut, got.T, got.P, pooledWelch.T, pooledWelch.P)
		}
		mean, err := wm.Mean()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.AlmostEqual(mean, pooledMeanW) {
			t.Fatalf("cut %d: merged mean %g != pooled %g", cut, mean, pooledMeanW)
		}
	}
	// Chi-squared partials are exact integer counts. Re-count the PC
	// contingency cell over every two-way split of the member slot list —
	// including empty and single-row parts — and require the merged
	// counts to reproduce the pooled test bit-for-bit.
	pcSlots := testData.RoleSlots(dataset.RolePCMember)
	for cut := 0; cut <= len(pcSlots); cut += 1 + len(pcSlots)/97 {
		a := testData.CountGenders(pcSlots[:cut])
		b := testData.CountGenders(pcSlots[cut:])
		k1, n1 := a.Women+b.Women, a.Known()+b.Known()
		if k1 != pc.Women || n1 != pc.Known() {
			t.Fatalf("cut %d: merged counts (%d/%d) != pooled (%d/%d)", cut, k1, n1, pc.Women, pc.Known())
		}
		got, err := stats.TwoProportionChiSq(k1, n1, au.Women, au.Known())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got.ChiSq != pooledChi.ChiSq || got.P != pooledChi.P {
			t.Fatalf("cut %d: merged chisq (%g, %g) != pooled (%g, %g)", cut, got.ChiSq, got.P, pooledChi.ChiSq, pooledChi.P)
		}
	}
}

func TestRingDeterministicAndDistinct(t *testing.T) {
	a := NewRing(5, 16)
	b := NewRing(5, 16)
	keys := []string{"seed=2021,corpus=default/shard=0", "seed=2021,corpus=default/shard=1", "x", "y", "z"}
	used := map[int]bool{}
	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("ring lookup for %q differs between identical rings", k)
		}
		seq := a.Sequence(k, 5)
		if len(seq) != 5 {
			t.Fatalf("Sequence(%q, 5) = %v, want 5 distinct workers", k, seq)
		}
		seen := map[int]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("Sequence(%q) repeats worker %d: %v", k, w, seq)
			}
			seen[w] = true
		}
		used[seq[0]] = true
	}
	// Over many keys the primaries must spread beyond one worker.
	for i := 0; i < 64; i++ {
		used[a.Lookup(string(rune('a'+i%26))+string(rune('0'+i%10)))] = true
	}
	if len(used) < 3 {
		t.Errorf("primaries landed on only %d of 5 workers", len(used))
	}
	// want larger than the ring clamps to the worker count.
	if got := a.Sequence("k", 99); len(got) != 5 {
		t.Errorf("Sequence want=99 returned %d workers", len(got))
	}
}
