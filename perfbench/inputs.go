package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/delta"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/synth"
)

// deltaYear is the SC edition every workload's year delta appends, the
// shape of the snapshot directory the CI delta job boots whpcd from.
const deltaYear = 2021

// corpusSeed is the k-th candidate flagship corpus seed of a workload seed.
func corpusSeed(seed uint64, k int) uint64 { return 1 + splitmix(seed, uint64(k))%1_000_000 }

// fixtures writes n fixtures for the workload seed, drawing candidate
// corpus seeds in order. A candidate whose year delta the program cannot
// apply is skipped and counted: for a few percent of corpus seeds
// delta.Apply rejects the SC'21 delta ("people frame order not
// append-compatible") and whpcd quarantines it and serves the base corpus.
// Timed ops must not fail, so the defect is reported by count instead.
func (b *bench) fixtures(n int) ([]fixture, error) {
	var fxs []fixture
	for k := 0; len(fxs) < n; k++ {
		if k > 10*n {
			return nil, fmt.Errorf("no appliable year delta among %d corpus seeds", k)
		}
		fx, err := writeFixture(b.dir, corpusSeed(b.seed, k))
		if err != nil {
			return nil, err
		}
		if _, err := fx.open(); err != nil {
			b.unappliable++
			b.note("inputs: corpus seed %d skipped, its year delta does not apply: %v", fx.seed, err)
			if err := fx.remove(); err != nil {
				return nil, err
			}
			continue
		}
		fxs = append(fxs, fx)
	}
	return fxs, nil
}

// remove deletes the fixture's files.
func (fx fixture) remove() error {
	if err := os.Remove(fx.base); err != nil {
		return err
	}
	return os.Remove(fx.deltaPath)
}

// fixture is one flagship corpus written the way whpcd's snapshot
// directory expects it: a base snapshot plus one SC year delta.
type fixture struct {
	seed      uint64
	base      string
	deltaPath string
}

// writeFixture synthesizes the flagship corpus for seed and writes its
// base snapshot and SC'21 year delta into dir.
func writeFixture(dir string, seed uint64) (fixture, error) {
	cfg := synth.FlagshipSeries(seed)
	st, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		return fixture{}, err
	}
	fx := fixture{
		seed:      seed,
		base:      filepath.Join(dir, snap.CorpusFileName(serve.CorpusFlagship, seed)),
		deltaPath: filepath.Join(dir, snap.DeltaFileName(serve.CorpusFlagship, seed, deltaYear)),
	}
	if err := st.SaveSnapshot(fx.base); err != nil {
		return fixture{}, fmt.Errorf("writing base snapshot: %w", err)
	}
	spec, err := synth.YearSpec(cfg, "SC", deltaYear)
	if err != nil {
		return fixture{}, err
	}
	yd, base, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		return fixture{}, err
	}
	if err := delta.WriteFile(fx.deltaPath, yd, base.Data); err != nil {
		return fixture{}, fmt.Errorf("writing year delta: %w", err)
	}
	return fx, nil
}

// open loads the fixture the way whpcd materializes it: base snapshot,
// then the year delta.
func (fx fixture) open() (*repro.Study, error) {
	st, err := repro.OpenSnapshotFile(fx.base)
	if err != nil {
		return nil, err
	}
	if err := st.ApplyDeltaFile(fx.deltaPath); err != nil {
		return nil, err
	}
	return st, nil
}

// grownStudy resynthesizes the flagship corpus with the delta's year in
// its calibration from the start: the ground truth a delta-grown study
// must match.
func grownStudy(seed uint64) (*repro.Study, error) {
	cfg := synth.FlagshipSeries(seed)
	spec, err := synth.YearSpec(cfg, "SC", deltaYear)
	if err != nil {
		return nil, err
	}
	cfg.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
	return repro.NewStudyFromConfig(cfg)
}

// exhibitCSV runs a named exhibit query on st and returns its CSV bytes.
func exhibitCSV(st *repro.Study, name string) ([]byte, error) {
	eq, ok := repro.ExhibitQueryByName(name)
	if !ok {
		return nil, fmt.Errorf("no exhibit query %q", name)
	}
	res, err := st.Query(eq.Query)
	if err != nil {
		return nil, fmt.Errorf("exhibit query %s: %w", name, err)
	}
	return res.CSV()
}

// exportCSV renders one report.CSVExports family the way the exporter and
// /v1/csv/{name} write it.
func exportCSV(e report.CSVExport) ([]byte, error) {
	rows, err := e.Rows()
	if err != nil {
		return nil, fmt.Errorf("csv export %s: %w", e.Name, err)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// poolSpec is one ad-hoc query of the api workloads' pool, with the bytes
// the in-process engine produces for it.
type poolSpec struct {
	body []byte // canonical JSON spec, the POST body
	q    *query.Query
	want []byte
}

// specPool is the seeded set of ad-hoc /v1/query specs.
type specPool struct {
	specs []poolSpec
	// defects are generated specs that hit a known engine defect (a select
	// over a float column panics in the engine). They are sent once per
	// run outside the timed window and their statuses counted, never mixed
	// into the timed traffic.
	defects [][]byte
	dropped int // generated specs the engine rejects as invalid or empty
}

// genCol describes one frame column for the spec generator.
type genCol struct {
	name string
	typ  query.ColType
	vals []string  // dictionary values (str columns)
	nums []float64 // distinct observed values (int columns), first 64
	card int       // distinct values
}

// genFrame is one frame's generator view.
type genFrame struct {
	name string
	cols []genCol
}

// frameMeta describes every frame of fs for the spec generator.
func frameMeta(fs *query.FrameSet) []genFrame {
	var out []genFrame
	for _, name := range fs.Names() {
		f, _ := fs.Frame(name)
		gf := genFrame{name: name}
		for _, c := range f.Columns() {
			gc := genCol{name: c.Name, typ: c.Type}
			switch c.Type {
			case query.TStr:
				gc.vals = c.Dict.Values()
				gc.card = len(gc.vals)
			case query.TBool:
				gc.card = 2
			case query.TInt:
				seen := map[int64]bool{}
				for i, v := range c.Ints {
					if (c.Valid == nil || c.Valid.Get(i)) && !seen[v] {
						seen[v] = true
						if len(gc.nums) < 64 {
							gc.nums = append(gc.nums, float64(v))
						}
					}
				}
				gc.card = len(seen)
			case query.TFloat:
				gc.card = f.NumRows
			}
			gf.cols = append(gf.cols, gc)
		}
		out = append(out, gf)
	}
	return out
}

// maxGroups bounds the key cross product of a generated grouped spec, so
// no result outgrows a few hundred rows and one seed's pool costs about
// what another's does. It also keeps every "complete" spec small: an
// unbounded one (person x person on members) builds a ~22M-group product
// and exhausts memory instead of producing a timing, so
// the generator never emits one.
const maxGroups = 512

// genSpec draws one ad-hoc query spec over the frames.
func genSpec(r *rand.Rand, frames []genFrame) *query.Query {
	f := frames[r.IntN(len(frames))]
	pick := func(ok func(genCol) bool) (genCol, bool) {
		var c []genCol
		for _, col := range f.cols {
			if ok(col) {
				c = append(c, col)
			}
		}
		if len(c) == 0 {
			return genCol{}, false
		}
		return c[r.IntN(len(c))], true
	}
	q := &query.Query{Frame: f.name, Format: query.FormatJSON}
	if r.IntN(2) == 0 {
		q.Format = query.FormatCSV
	}
	for n := r.IntN(3); n > 0; n-- {
		c, ok := pick(func(c genCol) bool { return c.typ != query.TFloat && c.card >= 2 })
		if !ok {
			break
		}
		q.Where = append(q.Where, genPred(r, c))
	}
	if r.IntN(4) == 0 {
		for n := 1 + r.IntN(3); n > 0; n-- {
			c, _ := pick(func(genCol) bool { return true })
			q.Select = append(q.Select, query.Key{Col: c.name})
		}
		q.Limit = 10 + r.IntN(100)
		return q
	}
	groups := 1
	for n := 1 + r.IntN(2); n > 0; n-- {
		c, ok := pick(func(c genCol) bool {
			return (c.typ == query.TStr || c.typ == query.TBool || c.typ == query.TInt) && groups*(c.card+1) <= maxGroups
		})
		if !ok {
			break
		}
		dup := false
		for _, k := range q.GroupBy {
			dup = dup || k.Col == c.name
		}
		if dup {
			continue
		}
		q.GroupBy = append(q.GroupBy, query.Key{Col: c.name})
		groups *= c.card + 1
	}
	for n := 1 + r.IntN(3); n > 0; n-- {
		as := fmt.Sprintf("a%d", len(q.Aggs))
		switch r.IntN(4) {
		case 0:
			q.Aggs = append(q.Aggs, query.Agg{Op: "count", As: as})
		case 1:
			if c, ok := pick(func(c genCol) bool { return c.typ == query.TBool }); ok {
				q.Aggs = append(q.Aggs, query.Agg{Op: "count", As: as, Where: []query.Pred{{Col: c.name, Op: "eq", Value: true}}})
			}
		case 2:
			num, ok1 := pick(func(c genCol) bool { return c.typ == query.TBool })
			den, ok2 := pick(func(c genCol) bool { return c.typ == query.TBool })
			if ok1 && ok2 {
				q.Aggs = append(q.Aggs, query.Agg{Op: "ratio", Num: num.name, Den: den.name, As: as})
			}
		default:
			if c, ok := pick(func(c genCol) bool { return c.typ == query.TInt || c.typ == query.TFloat }); ok {
				ops := []string{"sum", "mean", "min", "max"}
				q.Aggs = append(q.Aggs, query.Agg{Op: ops[r.IntN(len(ops))], Col: c.name, As: as})
			}
		}
	}
	if len(q.Aggs) == 0 {
		q.Aggs = []query.Agg{{Op: "count", As: "a0"}}
	}
	if r.IntN(5) == 0 {
		q.Complete = true
	}
	if r.IntN(7) == 0 {
		q.Totals = "ALL"
	}
	if r.IntN(5) < 2 {
		key := q.Aggs[0].As
		if r.IntN(2) == 0 && len(q.GroupBy) > 0 {
			key = q.GroupBy[0].Col
		}
		q.OrderBy = []query.Order{{Key: key, Desc: r.IntN(2) == 0}}
	}
	if r.IntN(10) < 3 {
		q.Limit = 1 + r.IntN(20)
	}
	return q
}

// genPred draws a filter predicate over c.
func genPred(r *rand.Rand, c genCol) query.Pred {
	switch c.typ {
	case query.TBool:
		return query.Pred{Col: c.name, Op: "eq", Value: r.IntN(2) == 0}
	case query.TInt:
		ops := []string{"lt", "le", "gt", "ge"}
		return query.Pred{Col: c.name, Op: ops[r.IntN(len(ops))], Value: c.nums[r.IntN(len(c.nums))]}
	}
	if r.IntN(3) == 0 {
		return query.Pred{Col: c.name, Op: "in", Values: []any{c.vals[r.IntN(len(c.vals))], c.vals[r.IntN(len(c.vals))]}}
	}
	op := "eq"
	if r.IntN(4) == 0 {
		op = "ne"
	}
	return query.Pred{Col: c.name, Op: op, Value: c.vals[r.IntN(len(c.vals))]}
}

// selectsFloat reports whether q projects a float column, the shape that
// panics in the engine.
func selectsFloat(q *query.Query, frames []genFrame) bool {
	for _, f := range frames {
		if f.name != q.Frame {
			continue
		}
		for _, k := range q.Select {
			for _, c := range f.cols {
				if c.name == k.Col && c.typ == query.TFloat {
					return true
				}
			}
		}
	}
	return false
}

// maxDefectSpecs caps the known-defect probe set.
const maxDefectSpecs = 16

// buildPool draws n valid specs for st from the seed. Each spec is
// canonicalized and re-parsed, so the in-process reference runs exactly
// what the server parses from the POST body.
func buildPool(st *repro.Study, seed uint64, n int) (*specPool, error) {
	r := rand.New(rand.NewPCG(seed, 0x5bec))
	frames := frameMeta(st.Frames())
	pool := &specPool{}
	seen := map[string]bool{}
	for attempts := 0; len(pool.specs) < n; attempts++ {
		if attempts > 50*n {
			return nil, fmt.Errorf("spec generator found only %d valid specs in %d attempts", len(pool.specs), attempts)
		}
		body := genSpec(r, frames).Canonical()
		q, err := query.Parse(body)
		if err != nil {
			return nil, fmt.Errorf("generated spec does not parse: %v: %s", err, body)
		}
		if seen[q.Hash()] {
			continue
		}
		seen[q.Hash()] = true
		if selectsFloat(q, frames) {
			if len(pool.defects) < maxDefectSpecs {
				pool.defects = append(pool.defects, body)
			}
			continue
		}
		want, err := runSafe(st, q)
		if errors.Is(err, errPanic) && len(pool.defects) < maxDefectSpecs {
			pool.defects = append(pool.defects, body)
		}
		if err != nil {
			pool.dropped++
			continue
		}
		pool.specs = append(pool.specs, poolSpec{body: body, q: q, want: want})
	}
	return pool, nil
}

// errPanic marks a spec on which the engine panicked.
var errPanic = errors.New("engine panic")

// runSafe runs q on st and encodes it, turning an engine panic into an
// error so one bad generated spec cannot end the run.
func runSafe(st *repro.Study, q *query.Query) (out []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", errPanic, rec)
		}
	}()
	res, err := st.Query(q)
	if err != nil {
		return nil, err
	}
	out, _, err = res.Encode(q.Format)
	return out, err
}
