package repro

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/delta"
	"repro/internal/perfgate"
	"repro/internal/snap"
	"repro/internal/synth"
)

// deltaFix is the shared longitudinal scenario: the flagship SC/ISC
// 2016-2020 corpus as the warm base, SC'21 synthesized as a year delta,
// and the ground truth — a full resynthesis with SC'21 in the calibration
// from the start. Built once; tests that mutate a study build their own
// copy via newBase.
var deltaFix = func() *deltaFixture {
	cfg := synth.FlagshipSeries(2021)
	spec, err := synth.YearSpec(cfg, "SC", 2021)
	if err != nil {
		panic(err)
	}
	yd, base, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		panic(err)
	}
	info, mini, err := delta.Pack(yd, base.Data)
	if err != nil {
		panic(err)
	}
	full := cfg
	full.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
	resynth, err := NewStudyFromConfig(full)
	if err != nil {
		panic(err)
	}
	return &deltaFixture{cfg: cfg, spec: spec, info: info, mini: mini, resynth: resynth}
}()

type deltaFixture struct {
	cfg     synth.Config
	spec    synth.ConfSpec
	info    snap.DeltaInfo
	mini    *dataset.Dataset
	resynth *Study
}

// newBase builds a fresh warm study of the base corpus with frames built,
// ready for an ApplyDelta.
func (fx *deltaFixture) newBase(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudyFromConfig(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Frames()
	return s
}

// snapshotBytes serializes corpus plus frames — the strongest equality
// probe available: byte-equal snapshots mean byte-equal datasets (person
// rows sorted, conference and paper slice order preserved) and byte-equal
// canonical frame encodings (dict tables, column values, tail-masked
// bitmaps).
func snapshotBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaApplyMatchesResynthesis is the tentpole guarantee of the delta
// subsystem: a warm study patched with the SC'21 delta is byte-identical
// to a study synthesized from scratch with SC'21 in its calibration — at
// snapshot level (corpus + canonical frame encoding), at report level, and
// at every exhibit query.
func TestDeltaApplyMatchesResynthesis(t *testing.T) {
	applied := deltaFix.newBase(t)
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if applied.Revision() != 1 {
		t.Errorf("Revision() = %d after one delta, want 1", applied.Revision())
	}

	if got, want := snapshotBytes(t, applied), snapshotBytes(t, deltaFix.resynth); !bytes.Equal(got, want) {
		t.Errorf("snapshot (corpus + frames) differs between delta-applied and resynthesized study")
	}

	var gotRep, wantRep bytes.Buffer
	if err := applied.WriteReport(&gotRep); err != nil {
		t.Fatalf("report on delta-applied study: %v", err)
	}
	if err := deltaFix.resynth.WriteReport(&wantRep); err != nil {
		t.Fatalf("report on resynthesized study: %v", err)
	}
	if !bytes.Equal(gotRep.Bytes(), wantRep.Bytes()) {
		t.Errorf("report differs between delta-applied and resynthesized study")
	}

	for _, eq := range ExhibitQueries() {
		got := runExhibitQuery(t, applied, eq)
		want := runExhibitQuery(t, deltaFix.resynth, eq)
		if !bytes.Equal(got, want) {
			t.Errorf("exhibit query %q differs between delta-applied and resynthesized study", eq.Name)
		}
	}
}

func runExhibitQuery(t *testing.T, s *Study, eq ExhibitQuery) []byte {
	t.Helper()
	res, err := s.Query(eq.Query)
	if err != nil {
		t.Fatalf("%s: %v", eq.Name, err)
	}
	b, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeltaApplyColdFrames covers the lazy path: applying a delta before
// frames are built must defer to the lazy builder over the merged corpus
// and still match the resynthesis.
func TestDeltaApplyColdFrames(t *testing.T) {
	s, err := NewStudyFromConfig(deltaFix.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Frames() call: the delta merges the dataset only.
	if err := s.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got, want := snapshotBytes(t, s), snapshotBytes(t, deltaFix.resynth); !bytes.Equal(got, want) {
		t.Errorf("snapshot differs between cold-frames delta-applied and resynthesized study")
	}
}

// TestDeltaApplyDeterministicAcrossGOMAXPROCS applies the delta and runs
// every exhibit query at GOMAXPROCS 1, 2 and 8, demanding byte-identical
// snapshots and query output — the queryrepro determinism contract
// extended to patched frames. The apply itself runs at each setting too,
// since it clones and appends the frames concurrently.
func TestDeltaApplyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) map[string][]byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		applied := deltaFix.newBase(t)
		if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
			t.Fatalf("GOMAXPROCS=%d: ApplyDelta: %v", procs, err)
		}
		out := map[string][]byte{"snapshot": snapshotBytes(t, applied)}
		for _, eq := range ExhibitQueries() {
			out[eq.Name] = runExhibitQuery(t, applied, eq)
		}
		return out
	}
	serial := run(1)
	for _, procs := range []int{2, 8} {
		parallel := run(procs)
		for name, want := range serial {
			if !bytes.Equal(parallel[name], want) {
				t.Errorf("%s: output differs between GOMAXPROCS=1 and %d on a delta-applied study", name, procs)
			}
		}
	}
}

// TestDeltaApplyMatchesResynthesisAcrossSeeds extends the identity
// guarantee to flagship seeds whose SC'21 edition exercises the two
// awkward cases: a researcher minted into the base corpus without a role
// takes their first role in the new edition, so their people row sorts
// before existing rows (seeds 12, 39, 49); and synthesizing the edition
// mints researchers who end up holding no role in it (seeds 3 and 5).
// Corpus and frame snapshot bytes must equal a full resynthesis.
func TestDeltaApplyMatchesResynthesisAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{2021, 3, 5, 12, 39, 49} {
		cfg := synth.FlagshipSeries(seed)
		spec, err := synth.YearSpec(cfg, "SC", 2021)
		if err != nil {
			t.Fatal(err)
		}
		yd, base, err := synth.GenerateYearDelta(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		info, mini, err := delta.Pack(yd, base.Data)
		if err != nil {
			t.Fatal(err)
		}
		full := cfg
		full.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
		resynth, err := NewStudyFromConfig(full)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := FromDataset(base.Data)
		if err != nil {
			t.Fatal(err)
		}
		applied.Frames()
		if err := applied.ApplyDelta(info, mini); err != nil {
			t.Errorf("seed %d: ApplyDelta: %v", seed, err)
			continue
		}
		if got, want := len(applied.Dataset().Persons), len(resynth.Dataset().Persons); got != want {
			t.Errorf("seed %d: delta-applied corpus has %d persons, resynthesis %d", seed, got, want)
		}
		if got, want := snapshotBytes(t, applied), snapshotBytes(t, resynth); !bytes.Equal(got, want) {
			t.Errorf("seed %d: snapshot (corpus + frames) differs between delta-applied and resynthesized study", seed)
		}
	}
}

// TestDeltaApplyRejectsWrongBase proves the fingerprint guard: the SC'21
// delta generated against the flagship corpus must refuse a different
// corpus, leaving it untouched.
func TestDeltaApplyRejectsWrongBase(t *testing.T) {
	other, err := NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	other.Frames()
	before := snapshotBytes(t, other)
	if err := other.ApplyDelta(deltaFix.info, deltaFix.mini); err == nil {
		t.Fatal("ApplyDelta accepted a delta generated against a different base")
	}
	if !bytes.Equal(before, snapshotBytes(t, other)) {
		t.Errorf("rejected delta mutated the study")
	}
}

// TestDeltaApplyRejectsDoubleApply proves a delta cannot be absorbed
// twice: after one apply the fingerprint has moved on.
func TestDeltaApplyRejectsDoubleApply(t *testing.T) {
	applied := deltaFix.newBase(t)
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("first ApplyDelta: %v", err)
	}
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err == nil {
		t.Fatal("second ApplyDelta of the same delta succeeded")
	}
	if applied.Revision() != 1 {
		t.Errorf("Revision() = %d after a rejected re-apply, want 1", applied.Revision())
	}
}

// TestDeltaFileRoundTrip writes the delta through the snap container and
// applies it from disk, proving the file path end to end.
func TestDeltaFileRoundTrip(t *testing.T) {
	yd, base, err := synth.GenerateYearDelta(deltaFix.cfg, deltaFix.spec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + snap.DeltaFileName("flagship", 2021, 2021)
	if err := delta.WriteFile(path, yd, base.Data); err != nil {
		t.Fatalf("delta.WriteFile: %v", err)
	}
	applied := deltaFix.newBase(t)
	if err := applied.ApplyDeltaFile(path); err != nil {
		t.Fatalf("ApplyDeltaFile: %v", err)
	}
	if got, want := snapshotBytes(t, applied), snapshotBytes(t, deltaFix.resynth); !bytes.Equal(got, want) {
		t.Errorf("snapshot differs between file-applied delta and resynthesized study")
	}
}

// TestDeltaApplyBeatsResynthesis is the incremental-maintenance perf
// floor: patching a warm study with one year must be at least 10x faster
// than resynthesizing the grown corpus and rebuilding its frames. The
// sides run in interleaved pairs of time-sized batches and the gate reads
// the median ratio. Each apply needs a fresh base study, built and
// collected outside the timed window.
func TestDeltaApplyBeatsResynthesis(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate disabled under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate disabled with -short")
	}
	full := deltaFix.cfg
	full.Confs = append(append([]synth.ConfSpec(nil), deltaFix.cfg.Confs...), deltaFix.spec)

	apply := func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			s := deltaFix.newBase(t)
			// Settle the setup's garbage outside the timed window; the
			// gate measures the apply, not the base synthesis's GC debt.
			runtime.GC()
			start := time.Now()
			if err := s.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
				t.Fatal(err)
			}
			d += time.Since(start)
		}
		return d
	}
	resynth := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			s, err := NewStudyFromConfig(full)
			if err != nil {
				t.Fatal(err)
			}
			s.Frames()
		}
		return time.Since(start)
	}
	res := perfgate.Compare(11, gateSample, resynth, apply)
	t.Logf("delta apply: %.2fms, full resynthesis + frame build: %.2fms (median ratio %.1fx)",
		ms(res.Fast), ms(res.Slow), res.Ratio)
	if res.Ratio < 10 {
		t.Errorf("delta apply (%.2fms) is not 10x faster than resynthesis (%.2fms): median ratio %.1fx",
			ms(res.Fast), ms(res.Slow), res.Ratio)
	}
}
