package stats

import (
	"errors"
	"math"
)

// KDE is a one-dimensional Gaussian kernel density estimate, the tool behind
// the paper's density plots (Figs 2-5: citation and experience distributions
// by gender and role).
type KDE struct {
	xs        []float64
	bandwidth float64
	// distinct holds each distinct sample bit pattern once and sampleOf
	// maps sample i to its entry in distinct. The bibliometric samples are
	// small integers with heavy ties, so the density evaluates one kernel
	// per distinct value and then adds the terms in sample order: every
	// addition is the naive n-term loop's, and the result is bit-identical.
	distinct []float64
	sampleOf []int32
}

// BandwidthRule selects the KDE bandwidth heuristic.
type BandwidthRule int

const (
	// Silverman is Silverman's rule of thumb, R's bw.nrd0 — the default
	// used by ggplot2's geom_density, and therefore by the paper's plots.
	Silverman BandwidthRule = iota
	// Scott is Scott's rule, kept for the bandwidth ablation bench.
	Scott
)

// NewKDE builds a Gaussian KDE over xs with the given bandwidth rule.
func NewKDE(xs []float64, rule BandwidthRule) (*KDE, error) {
	if len(xs) < 2 {
		return nil, errors.New("stats: KDE needs at least 2 observations")
	}
	bw, err := bandwidth(xs, rule)
	if err != nil {
		return nil, err
	}
	return newKDE(xs, bw), nil
}

// NewKDEWithBandwidth builds a KDE with an explicit bandwidth h > 0.
func NewKDEWithBandwidth(xs []float64, h float64) (*KDE, error) {
	if len(xs) < 1 {
		return nil, ErrEmpty
	}
	if h <= 0 || math.IsNaN(h) {
		return nil, errors.New("stats: KDE bandwidth must be positive")
	}
	return newKDE(xs, h), nil
}

func newKDE(xs []float64, h float64) *KDE {
	k := &KDE{
		xs:        append([]float64(nil), xs...),
		bandwidth: h,
		sampleOf:  make([]int32, len(xs)),
	}
	// Keyed by bit pattern so -0/+0 and NaN payloads stay apart: identical
	// bits are the only guarantee of identical kernel terms.
	slot := make(map[uint64]int32)
	for i, x := range xs {
		bits := math.Float64bits(x)
		j, ok := slot[bits]
		if !ok {
			j = int32(len(k.distinct))
			slot[bits] = j
			k.distinct = append(k.distinct, x)
		}
		k.sampleOf[i] = j
	}
	return k
}

func bandwidth(xs []float64, rule BandwidthRule) (float64, error) {
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	sorted := sortedCopy(xs)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
	n := float64(len(xs))
	// Robust spread estimate per bw.nrd0: min(sd, IQR/1.349), falling back
	// to sd when the IQR collapses (heavily tied samples).
	spread := sd
	if iqr > 0 && iqr/1.349 < spread {
		spread = iqr / 1.349
	}
	if AlmostZero(spread) {
		// Constant sample: degenerate density; pick a tiny positive width
		// so evaluation is still defined.
		spread = 1e-9
	}
	switch rule {
	case Silverman:
		return 0.9 * spread * math.Pow(n, -0.2), nil
	case Scott:
		return 1.06 * spread * math.Pow(n, -0.2), nil
	default:
		return 0, errors.New("stats: unknown bandwidth rule")
	}
}

// Bandwidth returns the bandwidth in use.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }

// PDF evaluates the density estimate at x.
func (k *KDE) PDF(x float64) float64 {
	return k.pdf(x, make([]float64, len(k.distinct)))
}

// expZero bounds the exponents whose kernel term is exactly zero:
// below it the true exp is under half the smallest subnormal, and
// math.Exp returns +0 (amd64's assembly version flushes to zero below
// about -745.8, the portable one below -745.13). Skipping those calls
// changes no term, and the zero terms are still added in order.
const expZero = -746

// pdf evaluates the density at x using terms (one slot per distinct
// sample value) as scratch.
func (k *KDE) pdf(x float64, terms []float64) float64 {
	invH := 1 / k.bandwidth
	norm := invH / (float64(len(k.xs)) * math.Sqrt(2*math.Pi))
	for j, xj := range k.distinct {
		z := (x - xj) * invH
		e := -0.5 * z * z
		if e < expZero {
			terms[j] = 0
			continue
		}
		terms[j] = math.Exp(e)
	}
	var sum float64
	for _, j := range k.sampleOf {
		sum += terms[j]
	}
	return sum * norm
}

// Evaluate returns the density sampled at n evenly spaced points covering
// [min-3h, max+3h], the convention R's density() uses (cut = 3).
func (k *KDE) Evaluate(n int) (xs, ys []float64) {
	if n < 2 {
		n = 2
	}
	lo, _ := Min(k.xs)
	hi, _ := Max(k.xs)
	lo -= 3 * k.bandwidth
	hi += 3 * k.bandwidth
	xs = make([]float64, n)
	ys = make([]float64, n)
	terms := make([]float64, len(k.distinct))
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		xs[i] = lo + float64(i)*step
		ys[i] = k.pdf(xs[i], terms)
	}
	return xs, ys
}

// Integrate approximates the integral of the density over [lo, hi] with the
// trapezoid rule on n panels. Used by the property tests to check that the
// estimate integrates to approximately 1.
func (k *KDE) Integrate(lo, hi float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	step := (hi - lo) / float64(n)
	sum := (k.PDF(lo) + k.PDF(hi)) / 2
	for i := 1; i < n; i++ {
		sum += k.PDF(lo + float64(i)*step)
	}
	return sum * step
}
