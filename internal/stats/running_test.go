package stats

import (
	"math"
	"testing"

	"ucp/internal/rng"
)

// TestRunningMatchesCI95 pins the equivalence between the one-pass
// Welford accumulator and the slice-based CI95 across sample counts
// spanning the whole t table and beyond, including heavy-cancellation
// series where a naive sum-of-squares accumulator loses precision.
func TestRunningMatchesCI95(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{2, 3, 5, 10, 29, 30, 31, 50, 500} {
		for _, scale := range []float64{1, 1e-6, 1e6} {
			var xs []float64
			var run Running
			for i := 0; i < n; i++ {
				// Offset well away from zero so relative-error checks
				// exercise cancellation in the variance accumulation.
				x := 1000 + scale*(r.Float64()-0.5)
				xs = append(xs, x)
				run.Add(x)
			}
			wantMean, wantHalf := CI95(xs)
			gotMean, gotHalf := run.CI95()
			if relErr(gotMean, wantMean) > 1e-12 {
				t.Errorf("n=%d scale=%g: mean %.17g, CI95 says %.17g", n, scale, gotMean, wantMean)
			}
			if relErr(gotHalf, wantHalf) > 1e-6 {
				t.Errorf("n=%d scale=%g: half %.17g, CI95 says %.17g", n, scale, gotHalf, wantHalf)
			}
			if run.N() != n {
				t.Errorf("n=%d: N() = %d", n, run.N())
			}
		}
	}
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 0 {
		return d / m
	}
	return d
}

// TestRunningEdgeCases pins the empty/single/constant edge cases the
// adaptive stop rule depends on: in particular one sample must report
// an infinite half-width so the controller can never terminate on n=1.
func TestRunningEdgeCases(t *testing.T) {
	var empty Running
	if mean, half := empty.CI95(); mean != 0 || half != 0 {
		t.Errorf("empty: got (%g, %g), want (0, 0)", mean, half)
	}

	var one Running
	one.Add(3.25)
	mean, half := one.CI95()
	if mean != 3.25 || !math.IsInf(half, 1) {
		t.Errorf("single sample: got (%g, %g), want (3.25, +Inf)", mean, half)
	}
	sMean, sHalf := CI95([]float64{3.25})
	if sMean != mean || !math.IsInf(sHalf, 1) {
		t.Errorf("CI95 single-sample disagreement: got (%g, %g)", sMean, sHalf)
	}

	var c Running
	for i := 0; i < 8; i++ {
		c.Add(2.5)
	}
	if mean, half := c.CI95(); mean != 2.5 || half != 0 {
		t.Errorf("constant series: got (%g, %g), want (2.5, 0)", mean, half)
	}
}
