package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/report"
	"repro/internal/synth"
)

// reproOutput is what one reproduce op produced: the study it built and
// the CSV of every exhibit query.
type reproOutput struct {
	st   *repro.Study
	csvs [][]byte
}

// reproOp is the paper-reproduction path for one fresh seed: synthesize
// the corpus, render the whole report, then run every exhibit query and
// encode it as CSV.
func reproOp(seed uint64) (reproOutput, error) {
	st, err := repro.NewStudy(seed)
	if err != nil {
		return reproOutput{}, err
	}
	if err := st.WriteReport(io.Discard); err != nil {
		return reproOutput{}, err
	}
	out := reproOutput{st: st}
	for _, eq := range repro.ExhibitQueries() {
		res, err := st.Query(eq.Query)
		if err != nil {
			return reproOutput{}, fmt.Errorf("exhibit query %s: %w", eq.Name, err)
		}
		b, err := res.CSV()
		if err != nil {
			return reproOutput{}, err
		}
		out.csvs = append(out.csvs, b)
	}
	return out, nil
}

// check compares every exhibit-query CSV with the report.CSVExports rows
// of the same corpus.
func (o reproOutput) check(b *bench, seed uint64) error {
	for i, eq := range repro.ExhibitQueries() {
		e, ok := report.CSVExportByName(o.st.Dataset(), eq.Name)
		if !ok {
			return fmt.Errorf("no CSV export family %q", eq.Name)
		}
		want, err := exportCSV(e)
		if err != nil {
			return err
		}
		if !bytes.Equal(o.csvs[i], want) {
			b.mismatch("seed %d: exhibit query %s differs from its CSV export", seed, eq.Name)
			return errCheck
		}
	}
	return nil
}

// reproSeed is the corpus seed of op i.
func reproSeed(seed uint64, i int) uint64 { return splitmix(seed, uint64(i)) }

// warmupSeeds is how many discarded warm-up ops set-up time is the
// median of.
const warmupSeeds = 5

// runReproduce runs the reproduce workload: one caller, a fresh corpus
// seed per op.
func runReproduce(b *bench) (int, int, error) {
	var setups []float64
	for k := 0; k < warmupSeeds; k++ {
		start := clock.Now()
		if _, err := reproOp(splitmix(^b.seed, uint64(k))); err != nil {
			return 0, 0, err
		}
		setups = append(setups, clock.Now().Sub(start).Seconds())
	}
	b.note("setup: %d warm-up ops, median %.4fs (min %.4fs, max %.4fs)", len(setups), median(setups), quantile(setups, 0), quantile(setups, 1))
	var last *repro.Study
	op := func(_, i int) (string, time.Duration, error) {
		seed := reproSeed(b.seed, i)
		start := clock.Now()
		out, err := reproOp(seed)
		took := clock.Now().Sub(start)
		if err != nil {
			return "", took, err
		}
		last = out.st
		return "reproduce", took, out.check(b, seed)
	}
	if b.trace {
		return b.traceRun(traceTarget{
			clients: 1, op: op,
			tracedOp: func(t *tracer, _, i int) (string, time.Duration, error) {
				seed := reproSeed(b.seed, i)
				start := clock.Now()
				out, err := b.tracedReproOp(t, synth.Default2017(seed))
				took := clock.Now().Sub(start)
				if err != nil {
					return "", took, err
				}
				return "reproduce", took, out.check(b, seed)
			},
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
	b.liveHeap(last)
	return attempted, failed, nil
}
