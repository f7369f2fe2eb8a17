package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func normSample(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// naivePDF is the density loop the distinct-value kernel replaced, kept as
// the oracle: one kernel per sample, summed in sample order.
func naivePDF(xs []float64, h, x float64) float64 {
	var sum float64
	invH := 1 / h
	norm := invH / (float64(len(xs)) * math.Sqrt(2*math.Pi))
	for _, xi := range xs {
		z := (x - xi) * invH
		sum += math.Exp(-0.5 * z * z)
	}
	return sum * norm
}

// TestKDEBitIdenticalToNaiveSum requires Evaluate and PDF to reproduce
// the naive per-sample sum bit for bit, on heavily tied integer data (the
// Fig 3-5 publication counts and h-indexes), on continuous data, and on
// signed zeros.
func TestKDEBitIdenticalToNaiveSum(t *testing.T) {
	// Skipped kernel calls are exact only if math.Exp flushes to zero at
	// and below expZero; exp is monotone, so the bound is the worst case.
	if got := math.Exp(expZero); got != 0 {
		t.Fatalf("math.Exp(%v) = %v, want exactly 0", float64(expZero), got)
	}
	rng := rand.New(rand.NewPCG(5, 8))
	tied := make([]float64, 2000)
	for i := range tied {
		tied[i] = math.Floor(math.Exp(rng.NormFloat64()*1.2 + 2))
	}
	samples := map[string][]float64{
		"tied integers": tied,
		"continuous":    normSample(700, 11),
		"signed zeros":  {0, math.Copysign(0, -1), 1, 0, -1, math.Copysign(0, -1)},
	}
	for name, xs := range samples {
		k, err := NewKDE(xs, Silverman)
		if err != nil {
			t.Fatal(err)
		}
		gx, gy := k.Evaluate(256)
		for i := range gx {
			want := naivePDF(xs, k.Bandwidth(), gx[i])
			if math.Float64bits(gy[i]) != math.Float64bits(want) {
				t.Fatalf("%s: Evaluate at grid %d (x=%g) = %v, naive sum %v", name, i, gx[i], gy[i], want)
			}
			if got := k.PDF(gx[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PDF(%g) = %v, naive sum %v", name, gx[i], got, want)
			}
		}
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	xs := normSample(300, 42)
	for _, rule := range []BandwidthRule{Silverman, Scott} {
		k, err := NewKDE(xs, rule)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		integral := k.Integrate(lo-6*k.Bandwidth(), hi+6*k.Bandwidth(), 2000)
		approx(t, "KDE integral", integral, 1, 1e-3)
	}
}

func TestKDENonNegativeAndFinite(t *testing.T) {
	xs := []float64{0, 0, 1, 5, 5, 5, 20}
	k, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	gx, gy := k.Evaluate(128)
	if len(gx) != 128 || len(gy) != 128 {
		t.Fatalf("Evaluate returned %d/%d points, want 128", len(gx), len(gy))
	}
	for i, y := range gy {
		if y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("density at grid %d (x=%g) is %g", i, gx[i], y)
		}
	}
	// Grid is strictly increasing.
	for i := 1; i < len(gx); i++ {
		if gx[i] <= gx[i-1] {
			t.Fatal("Evaluate grid not increasing")
		}
	}
}

func TestKDEPeaksNearMode(t *testing.T) {
	// Tight cluster at 10 with stragglers: the density at 10 must exceed
	// the density far away.
	xs := []float64{9.8, 9.9, 10, 10.1, 10.2, 30}
	k, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	if !(k.PDF(10) > k.PDF(20)) {
		t.Errorf("PDF(10)=%g should exceed PDF(20)=%g", k.PDF(10), k.PDF(20))
	}
	if !(k.PDF(10) > k.PDF(30)) {
		t.Errorf("PDF(10)=%g should exceed PDF(30)=%g", k.PDF(10), k.PDF(30))
	}
}

func TestKDEBandwidthRules(t *testing.T) {
	xs := normSample(500, 3)
	sil, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	sco, err := NewKDE(xs, Scott)
	if err != nil {
		t.Fatal(err)
	}
	if !(sil.Bandwidth() < sco.Bandwidth()) {
		t.Errorf("Silverman (%g) should be narrower than Scott (%g)", sil.Bandwidth(), sco.Bandwidth())
	}
	// Silverman's rule on a clean normal sample: 0.9 * min(sd, IQR/1.349) * n^-1/5.
	sd, _ := StdDev(xs)
	q1, _ := Quantile(xs, 0.25)
	q3, _ := Quantile(xs, 0.75)
	spread := math.Min(sd, (q3-q1)/1.349)
	approx(t, "Silverman bw", sil.Bandwidth(), 0.9*spread*math.Pow(500, -0.2), 1e-12)
}

func TestKDEExplicitBandwidth(t *testing.T) {
	xs := []float64{1, 2, 3}
	k, err := NewKDEWithBandwidth(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "bw", k.Bandwidth(), 0.5, 0)
	if _, err := NewKDEWithBandwidth(xs, 0); err == nil {
		t.Error("want error for zero bandwidth")
	}
	if _, err := NewKDEWithBandwidth(xs, -1); err == nil {
		t.Error("want error for negative bandwidth")
	}
	if _, err := NewKDEWithBandwidth(nil, 1); err == nil {
		t.Error("want error for empty sample")
	}
	if _, err := NewKDE([]float64{5}, Silverman); err == nil {
		t.Error("want error for single observation")
	}
}

func TestKDEConstantSample(t *testing.T) {
	// Heavily tied sample must not blow up (bw.nrd0 fallback).
	xs := []float64{4, 4, 4, 4, 4, 4}
	k, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	if k.Bandwidth() <= 0 {
		t.Errorf("bandwidth %g must be positive", k.Bandwidth())
	}
	if v := k.PDF(4); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("PDF at the atom is %g", v)
	}
}

func TestHistogramBasics(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.999, 4}
	h, err := NewHistogramRange(xs, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := []int{2, 2, 2, 3} // 4.0 lands in the last bin
	for i, c := range h.Counts {
		if c != wantCounts[i] {
			t.Errorf("bin %d = %d, want %d", i, c, wantCounts[i])
		}
	}
	if h.N != 9 || h.Under != 0 || h.Over != 0 {
		t.Errorf("N/Under/Over = %d/%d/%d", h.N, h.Under, h.Over)
	}
	edges := h.BinEdges()
	if len(edges) != 5 || edges[0] != 0 || edges[4] != 4 {
		t.Errorf("edges = %v", edges)
	}
	if h.MaxCount() != 3 {
		t.Errorf("MaxCount = %d, want 3", h.MaxCount())
	}
}

func TestHistogramOutOfRangeAndNaN(t *testing.T) {
	xs := []float64{-1, 0, 1, 5, math.NaN()}
	h, err := NewHistogramRange(xs, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("Under/Over = %d/%d, want 1/1", h.Under, h.Over)
	}
	if h.N != 4 { // NaN excluded
		t.Errorf("N = %d, want 4", h.N)
	}
}

func TestHistogramDensitiesSumToOne(t *testing.T) {
	xs := normSample(1000, 77)
	h, err := NewHistogram(xs, 30)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, d := range h.Densities() {
		total += d * h.Width
	}
	approx(t, "density mass", total, 1, 1e-9)
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 5); err != ErrEmpty {
		t.Error("want ErrEmpty")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("want error for zero bins")
	}
	if _, err := NewHistogramRange([]float64{1}, 2, 2, 3); err == nil {
		t.Error("want error for hi == lo")
	}
	// Degenerate all-equal sample handled by widening.
	h, err := NewHistogram([]float64{7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Counts[0]; got != 3 {
		t.Errorf("all-equal sample: first bin = %d, want 3", got)
	}
}
