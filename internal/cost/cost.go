// Package cost implements the analytical offline cost model for blocked
// matrix multiply sketched in §IV-A ("Offline Performance Profiling for
// BMM"): dense GEMM is compute-bound, so its runtime is FLOPs divided by the
// machine's sustained FLOP rate. The paper reports the model accurate within
// 5% for the GEMM stage, while noting it cannot cover the data-dependent
// top-K heap stage — which is why OPTIMUS ships with the sampling estimator
// instead. The ablation-costmodel experiment reproduces both observations.
package cost

import (
	"fmt"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
)

// Model predicts GEMM runtimes from a calibrated FLOP rate.
type Model struct {
	// FlopsPerSecond is the sustained rate measured by Calibrate.
	FlopsPerSecond float64
}

// GemmFLOPs returns the floating-point operation count of an m×f by f×n
// product (one multiply + one add per cell element).
func GemmFLOPs(m, n, f int) float64 {
	return 2 * float64(m) * float64(n) * float64(f)
}

// Calibrate measures the sustained FLOP rate of the blas.GemmNT kernel with
// a probe of the given shape, run `reps` times (first run warms the cache
// and is discarded when reps > 1). The rate comes from the fastest timed
// run: on a shared machine preemption only ever adds time, so the minimum
// is the estimate least disturbed by other load. Shapes comparable to the
// target workload give the best predictions.
func Calibrate(m, n, f, reps, threads int) (*Model, error) {
	if m < 1 || n < 1 || f < 1 {
		return nil, fmt.Errorf("cost: non-positive probe shape %dx%dx%d", m, n, f)
	}
	if reps < 1 {
		reps = 1
	}
	a := mat.New(m, f)
	b := mat.New(n, f)
	for i := range a.Data() {
		a.Data()[i] = float64(i%7) * 0.25
	}
	for i := range b.Data() {
		b.Data()[i] = float64(i%5) * 0.5
	}
	c := mat.New(m, n)

	run := func() time.Duration {
		t0 := time.Now()
		blas.GemmNTParallel(a, b, c, threads)
		return time.Since(t0)
	}
	if reps > 1 {
		run() // warm-up
		reps--
	}
	best := run()
	for i := 1; i < reps; i++ {
		if d := run(); d < best {
			best = d
		}
	}
	secs := best.Seconds()
	if secs <= 0 {
		return nil, fmt.Errorf("cost: calibration produced non-positive time")
	}
	return &Model{FlopsPerSecond: GemmFLOPs(m, n, f) / secs}, nil
}

// PredictGemm returns the modeled runtime of an m-user × n-item × f-factor
// scoring pass.
func (md *Model) PredictGemm(m, n, f int) time.Duration {
	if md.FlopsPerSecond <= 0 {
		return 0
	}
	return time.Duration(GemmFLOPs(m, n, f) / md.FlopsPerSecond * float64(time.Second))
}

// RelativeError returns |predicted-actual|/actual — the §IV-A accuracy
// metric (the paper reports ≤ 5% for the GEMM stage).
func RelativeError(predicted, actual time.Duration) float64 {
	if actual == 0 {
		return 0
	}
	d := predicted.Seconds() - actual.Seconds()
	if d < 0 {
		d = -d
	}
	return d / actual.Seconds()
}
