package reghd

import (
	"fmt"
	"math/rand"
	"testing"

	"reghd/internal/core"
	"reghd/internal/dataset"
)

// Sharded-training benchmark: each `serial_wN` lane runs the sequential
// Fit and its `parallel_wN` counterpart runs FitParallel with N workers on
// the same task, so the pair's speedup IS the parallel scaling at that
// worker count (`make bench-train-json` records the pairs in
// BENCH_train.json). The serial lanes are deliberately identical runs —
// honest repeated baselines, so each pair's spread is visible beside its
// speedup. The w1 pair is the no-regression gate (`make bench-check` allows
// 0.95x — orchestration overhead must be nil, not negative); the w2/w4
// pairs document scaling and reach near-linear only when GOMAXPROCS ≥
// workers — on a 1-core runner they hover around 1.0x, the honest caveat
// docs/TRAINING.md spells out.

const (
	trainBenchRows  = 512
	trainBenchFeats = 6
	trainBenchDim   = 256
)

// benchTrainFixture returns a pre-standardized training set and a model
// factory; every lane iteration trains a fresh model so no lane benefits
// from a warm start.
func benchTrainFixture(b *testing.B) (*dataset.Dataset, func() *core.Model) {
	b.Helper()
	rng := rand.New(rand.NewSource(31))
	w := make([]float64, trainBenchFeats)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	d := &dataset.Dataset{Name: "bench", X: make([][]float64, trainBenchRows), Y: make([]float64, trainBenchRows)}
	for i := range d.X {
		x := make([]float64, trainBenchFeats)
		y := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			y += w[j] * x[j]
		}
		d.X[i] = x
		d.Y[i] = y + 0.05*rng.NormFloat64()
	}
	enc, err := NewEncoder(trainBenchFeats, trainBenchDim, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Models = 4
	cfg.Epochs = 3
	cfg.Patience = 100 // fixed work per iteration: never converge early
	cfg.Seed = 9
	return d, func() *core.Model {
		m, err := core.New(enc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
}

// BenchmarkFitParallel pairs sequential Fit against FitParallel at 1, 2,
// and 4 workers (n=512 rows, D=256, k=4, 3 epochs).
func BenchmarkFitParallel(b *testing.B) {
	d, mk := benchTrainFixture(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("serial_w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mk().Fit(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parallel_w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mk().FitParallel(d, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
