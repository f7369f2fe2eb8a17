// Package perfgate runs the repository's relative timing gates so that
// they hold their floors on a loaded machine. The two sides of a
// comparison run in interleaved pairs, alternating which side goes first,
// and the gate reads the median of the per-pair ratios: load from a
// parallel test binary that lands on one pair skews that pair, not the
// verdict.
//
// Like testing.Benchmark, every sample runs a batch of operations sized to
// take at least a target time, and nothing collects garbage between
// samples: each side pays for the collections its own allocations
// trigger. Callers time their own batches, so a side can leave its
// per-operation set-up out of the measurement; the package reads no clock
// itself.
//
// The package is test-only support code and must never be imported by
// shipped code.
package perfgate

import (
	"slices"
	"time"
)

// Side runs n operations and returns the time they took, leaving out any
// per-operation set-up.
type Side func(n int) time.Duration

// Result is the outcome of one comparison.
type Result struct {
	// Ratio is the median over pairs of the slow side's time per
	// operation divided by the fast side's.
	Ratio float64
	// Slow and Fast are each side's median time per operation.
	Slow, Fast time.Duration
}

// Compare measures slow and fast in the given number of pairs. It first
// sizes each side's batch so one sample takes at least target, growing
// the operation count the way testing.Benchmark grows b.N; those sizing
// runs double as warm-up and are not measured.
func Compare(pairs int, target time.Duration, slow, fast Side) Result {
	sn := batchSize(slow, target)
	fn := batchSize(fast, target)
	perOp := func(side Side, n int) time.Duration { return side(n) / time.Duration(n) }
	slows := make([]time.Duration, pairs)
	fasts := make([]time.Duration, pairs)
	ratios := make([]float64, pairs)
	for i := range ratios {
		if i%2 == 0 {
			slows[i] = perOp(slow, sn)
			fasts[i] = perOp(fast, fn)
		} else {
			fasts[i] = perOp(fast, fn)
			slows[i] = perOp(slow, sn)
		}
		ratios[i] = float64(slows[i]) / float64(fasts[i])
	}
	return Result{Ratio: median(ratios), Slow: median(slows), Fast: median(fasts)}
}

// batchSize returns the smallest operation count found whose batch takes
// at least target: starting from one, it predicts the count from the last
// batch's time per operation with 20% slack, growing at least by one and
// at most a hundredfold per step (testing.Benchmark's rule).
func batchSize(side Side, target time.Duration) int {
	n := 1
	for {
		d := side(n)
		if d >= target || n >= 1e9 {
			return n
		}
		next := int64(1e9)
		if perOp := d.Nanoseconds() / int64(n); perOp > 0 {
			next = target.Nanoseconds() / perOp
		}
		next += next / 5
		next = min(next, 100*int64(n))
		next = max(next, int64(n)+1)
		n = int(min(next, 1e9))
	}
}

func median[T float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
