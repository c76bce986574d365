package reghd_test

import (
	"math/rand"
	"testing"

	"reghd"
	"reghd/internal/core"
	"reghd/internal/encoding"
	"reghd/internal/experiments"
	"reghd/internal/hdc"
)

// benchOptions are the experiment settings used by the table/figure
// benchmarks: moderate dimensionality and sample caps so the full bench
// suite completes in minutes while preserving every trend. The
// reghd-bench CLI runs the same experiments at full scale.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Dim: 512, MaxSamples: 1200, Epochs: 20}
}

// runExperiment executes one registered experiment per benchmark
// iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md §4).

func BenchmarkFig3aIterations(b *testing.B)        { runExperiment(b, "fig3a") }
func BenchmarkFig3bSingleVsMulti(b *testing.B)     { runExperiment(b, "fig3b") }
func BenchmarkTable1Quality(b *testing.B)          { runExperiment(b, "table1") }
func BenchmarkFig6ClusterQuant(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7Configs(b *testing.B)            { runExperiment(b, "fig7") }
func BenchmarkFig8Efficiency(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9ConfigEfficiency(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkTable2Dimensionality(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkCapacityAnalysis(b *testing.B)       { runExperiment(b, "cap") }
func BenchmarkRobustnessSweep(b *testing.B)        { runExperiment(b, "robust") }
func BenchmarkAblationSweep(b *testing.B)          { runExperiment(b, "ablate") }
func BenchmarkSparsitySweep(b *testing.B)          { runExperiment(b, "sparse") }
func BenchmarkDesignSpaceExploration(b *testing.B) { runExperiment(b, "dse") }
func BenchmarkPlatformComparison(b *testing.B)     { runExperiment(b, "platforms") }

// Micro-benchmarks of the hot kernels, for profiling the substrate itself.

func BenchmarkEncodeNonlinear(b *testing.B) {
	enc, err := encoding.NewNonlinear(rand.New(rand.NewSource(1)), 13, 4000)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 13)
	for j := range x {
		x[j] = rand.New(rand.NewSource(2)).NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encoding.Bipolar(enc, nil, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammingSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := hdc.RandomBipolarBinary(rng, 4000)
	y := hdc.RandomBipolarBinary(rng, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdc.HammingSimilarity(nil, x, y)
	}
}

func BenchmarkCosineSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := hdc.RandomBipolar(rng, 4000)
	y := hdc.RandomGaussian(rng, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdc.Cosine(nil, x, y)
	}
}

func BenchmarkDotBinaryDense(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := hdc.RandomBipolarBinary(rng, 4000)
	y := hdc.RandomGaussian(rng, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdc.DotBinaryDense(nil, x, y)
	}
}

func BenchmarkTrainEpochMultiModel(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	train := &reghd.Dataset{Name: "bench", X: make([][]float64, 500), Y: make([]float64, 500)}
	for i := range train.X {
		x := make([]float64, 8)
		var y float64
		for j := range x {
			x[j] = rng.NormFloat64()
			y += x[j]
		}
		train.X[i] = x
		train.Y[i] = y
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := encoding.NewNonlinear(rand.New(rand.NewSource(7)), 8, 2000)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{Models: 8, Epochs: 1, Tol: 1e-12, Patience: 1000, Seed: 8}
		m, err := core.New(enc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainedModel fits the multi-model configuration the prediction
// benchmarks share.
func benchTrainedModel(b *testing.B) (*core.Model, *reghd.Dataset) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	train := &reghd.Dataset{Name: "bench", X: make([][]float64, 200), Y: make([]float64, 200)}
	for i := range train.X {
		x := make([]float64, 8)
		var y float64
		for j := range x {
			x[j] = rng.NormFloat64()
			y += x[j]
		}
		train.X[i] = x
		train.Y[i] = y
	}
	enc, err := encoding.NewNonlinear(rand.New(rand.NewSource(10)), 8, 2000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Models: 8, Epochs: 3, Seed: 11}
	m, err := core.New(enc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	return m, train
}

func BenchmarkPredictMultiModel(b *testing.B) {
	m, train := benchTrainedModel(b)
	x := train.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// Concurrent-serving benchmarks: throughput of the race-free prediction
// paths under GOMAXPROCS-way parallel load (compare ns/op against the
// serial BenchmarkPredictMultiModel to see the scaling).

func BenchmarkPredictConcurrentModel(b *testing.B) {
	m, train := benchTrainedModel(b)
	x := train.X[0]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := m.Predict(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPredictConcurrentSnapshot(b *testing.B) {
	m, train := benchTrainedModel(b)
	snap := m.Snapshot()
	x := train.X[0]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := snap.Predict(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineServeWhileTraining measures read throughput while a writer
// goroutine streams PartialFit updates and republishes snapshots — the
// serve-while-training workload the engine exists for.
func BenchmarkEngineServeWhileTraining(b *testing.B) {
	m, train := benchTrainedModel(b)
	e, err := reghd.NewEngine(m)
	if err != nil {
		b.Fatal(err)
	}
	e.SetPublishEvery(32)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := i % len(train.X)
			if err := e.PartialFit(train.X[r], train.Y[r]); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	x := train.X[0]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Predict(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// benchEngine returns a serving engine over a trained model plus an input
// row, shared by the metrics-overhead pair below.
func benchEngine(b *testing.B) (*reghd.Engine, []float64) {
	b.Helper()
	m, train := benchTrainedModel(b)
	e, err := reghd.NewEngine(m)
	if err != nil {
		b.Fatal(err)
	}
	return e, train.X[0]
}

// BenchmarkEnginePredictMetricsOff / MetricsOn measure the cost of the
// instrumentation layer on the hot read path. The acceptance bar for the
// observability work is < 5% throughput overhead; compare ns/op of the
// two with benchstat (or by eye).
func BenchmarkEnginePredictMetricsOff(b *testing.B) {
	e, x := benchEngine(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Predict(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEnginePredictMetricsOn(b *testing.B) {
	e, x := benchEngine(b)
	e.EnableMetrics()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Predict(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
