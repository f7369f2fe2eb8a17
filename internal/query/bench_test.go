package query

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/perfgate"
)

// farQuery is the far_per_conference exhibit query verbatim: filter to
// author slots, group by conference, count women/known/unknown, take the
// ratio, and append the overall totals row.
func farQuery() *Query {
	return &Query{
		Frame:   FrameSlots,
		Where:   []Pred{{Col: "role", Op: "eq", Value: "author"}},
		GroupBy: []Key{{Col: "conference"}},
		Aggs: []Agg{
			{Op: "count", As: "women", Where: []Pred{{Col: "female", Op: "eq", Value: true}}},
			{Op: "count", As: "known", Where: []Pred{{Col: "known", Op: "eq", Value: true}}},
			{Op: "ratio", Num: "female", Den: "known", As: "far"},
			{Op: "count", As: "unknown", Where: []Pred{{Col: "known", Op: "eq", Value: false}}},
		},
		Totals:   "ALL",
		Complete: true,
	}
}

// BenchmarkQueryFAR measures the columnar FAR-by-conference slice.
func BenchmarkQueryFAR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queryFAR(b)
	}
}

func queryFAR(tb testing.TB) {
	if _, err := Run(testFrames, farQuery()); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNaiveFAR is the row-at-a-time baseline the columnar path must
// beat: the fixed exhibit code's own shape (core.AuthorFAR) — materialize
// the author-slot list overall and per conference, then resolve each slot
// against the person table. The unique-author census AuthorFAR also runs
// is left out, in the baseline's favor.
func BenchmarkNaiveFAR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		naiveFAR(b)
	}
}

func naiveFAR(tb testing.TB) {
	type confFAR struct {
		name                  string
		women, known, unknown int
	}
	all := testData.CountGenders(testData.AuthorSlots())
	rows := make([]confFAR, 0, len(testData.Conferences))
	for _, c := range testData.Conferences {
		gc := testData.CountGenders(testData.AuthorSlots(c.ID))
		rows = append(rows, confFAR{c.Name, gc.Women, gc.Women + gc.Men, gc.Unknown})
	}
	if len(rows) == 0 || all.Women+all.Men == 0 {
		tb.Fatal("empty corpus")
	}
}

// BenchmarkQueryGroupBy measures a two-key columnar group-by over every
// slot row (conference x role, count + citation sum).
func BenchmarkQueryGroupBy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queryGroupBy(b)
	}
}

func queryGroupBy(tb testing.TB) {
	q := &Query{
		Frame:   FrameSlots,
		GroupBy: []Key{{Col: "conference"}, {Col: "role"}},
		Aggs: []Agg{
			{Op: "count", As: "n"},
			{Op: "count", As: "women", Where: []Pred{{Col: "female", Op: "eq", Value: true}}},
		},
	}
	if _, err := Run(testFrames, q); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNaiveGroupBy is the equivalent row-loop: re-walk the role
// graph, concatenate string keys, and tally into a map — the idiomatic
// quick-and-dirty cut the query engine replaces.
func BenchmarkNaiveGroupBy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		naiveGroupBy(b)
	}
}

func naiveGroupBy(tb testing.TB) {
	type cell struct{ n, women int }
	cells := make(map[string]*cell)
	tally := func(name string, role dataset.Role, id dataset.PersonID) {
		key := name + "|" + role.String()
		cc := cells[key]
		if cc == nil {
			cc = &cell{}
			cells[key] = cc
		}
		cc.n++
		if p, ok := testData.Person(id); ok && p.Gender == gender.Female {
			cc.women++
		}
	}
	for _, r := range dataset.Roles() {
		for _, c := range testData.Conferences {
			if r == dataset.RoleAuthor {
				for _, p := range testData.PapersOf(c.ID) {
					for _, id := range p.Authors {
						tally(c.Name, r, id)
					}
				}
				continue
			}
			for _, id := range c.RoleHolders(r) {
				tally(c.Name, r, id)
			}
		}
	}
	if len(cells) == 0 {
		tb.Fatal("no cells")
	}
}

// TestColumnarBeatsNaive is the acceptance gate behind the benchmarks: the
// columnar group-by must be at least 2x faster than the naive row loop,
// and the columnar FAR at least as fast as the exhibit code's own walk.
// Each side runs the benchmark body in batches; the sides alternate in
// interleaved pairs and the gate reads the median ratio, so load from
// parallel test binaries cannot fail it on one unlucky sample.
func TestColumnarBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("perf floor skipped in -short")
	}
	if raceEnabled {
		t.Skip("perf floor not meaningful under the race detector's instrumentation")
	}
	batch := func(op func(testing.TB)) perfgate.Side {
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				op(t)
			}
			return time.Since(start)
		}
	}
	// Each sample runs at least 100ms, so eleven pairs time each side for
	// about as long as a default testing.Benchmark run.
	const sample = 100 * time.Millisecond
	gb := perfgate.Compare(11, sample, batch(naiveGroupBy), batch(queryGroupBy))
	t.Logf("columnar %v/op, naive %v/op (median ratio %.1fx)", gb.Fast, gb.Slow, gb.Ratio)
	if gb.Ratio < 2 {
		t.Errorf("columnar group-by %v/op not 2x faster than naive %v/op: median ratio %.1fx", gb.Fast, gb.Slow, gb.Ratio)
	}
	far := perfgate.Compare(11, sample, batch(naiveFAR), batch(queryFAR))
	t.Logf("FAR: columnar %v/op, naive %v/op (median ratio %.1fx)", far.Fast, far.Slow, far.Ratio)
	if far.Ratio < 1 {
		t.Errorf("columnar FAR %v/op slower than naive %v/op: median ratio %.2fx", far.Fast, far.Slow, far.Ratio)
	}
}
