package perfgate

import (
	"slices"
	"testing"
	"time"
)

// scripted returns a side whose k-th call costs perOp[k] per operation
// (the last entry repeats) and records each call's batch size and order.
func scripted(name string, perOp []time.Duration, order *string, sizes *[]int) Side {
	k := 0
	return func(n int) time.Duration {
		*order += name
		*sizes = append(*sizes, n)
		c := perOp[min(k, len(perOp)-1)]
		k++
		return c * time.Duration(n)
	}
}

// TestCompareMedianIgnoresOutlierPairs feeds scripted sample times: one
// pair where the fast side stalls (a burst of load) must not move the
// verdict, and the sides must alternate which runs first.
func TestCompareMedianIgnoresOutlierPairs(t *testing.T) {
	var order string
	var slowSizes, fastSizes []int
	// Two sizing calls each (1 op, then the predicted count), then pairs.
	slow := scripted("s", []time.Duration{100}, &order, &slowSizes)
	fast := scripted("f", []time.Duration{10, 10, 10, 10, 90, 10}, &order, &fastSizes)
	res := Compare(5, time.Microsecond, slow, fast)
	if res.Ratio != 10 {
		t.Errorf("median ratio = %v, want 10", res.Ratio)
	}
	if res.Slow != 100 || res.Fast != 10 {
		t.Errorf("median sides = %v/%v, want 100/10", res.Slow, res.Fast)
	}
	if want := "ss" + "ff" + "sf" + "fs" + "sf" + "fs" + "sf"; order != want {
		t.Errorf("call order %s, want %s", order, want)
	}
	// 1 op of 100ns predicts 1000/100 = 10, plus 20% slack: 12 ops.
	// 1 op of 10ns predicts 120, capped at a hundredfold: 100 ops.
	if want := []int{1, 12, 12, 12, 12, 12, 12}; !slices.Equal(slowSizes, want) {
		t.Errorf("slow batch sizes %v, want %v", slowSizes, want)
	}
	if want := []int{1, 100, 100, 100, 100, 100, 100}; !slices.Equal(fastSizes, want) {
		t.Errorf("fast batch sizes %v, want %v", fastSizes, want)
	}
}

func TestBatchSizeReachesTarget(t *testing.T) {
	var order string
	var sizes []int
	// 1ns per op: 1 op predicts 1.2M but may grow only 100x per step.
	side := scripted("x", []time.Duration{1}, &order, &sizes)
	n := batchSize(side, time.Millisecond)
	if n < 1_000_000 {
		t.Errorf("batch of %d ops takes %v, below the 1ms target", n, time.Duration(n))
	}
	if want := []int{1, 100, 10000, 1000000}; !slices.Equal(sizes, want) {
		t.Errorf("sizing steps %v, want %v", sizes, want)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
