package reghd

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/core"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// Kernel-layer benchmarks at the serving shape the paper's deployments use
// (n=32 features, D=4096). Each pair runs the pre-PR dense/per-cluster/
// serial path against the bit-packed/fused/parallel kernel that replaced
// it on the hot path; `make bench-json` records the pairs and their
// speedups in BENCH_kernels.json (see docs/PERFORMANCE.md). The batch
// encode pair, BenchmarkEncodeBatch, lives in internal/core beside the
// training encode it measures. The naming convention is load-bearing:
// reghd-benchjson pairs sub-benchmarks by swapping dense→packed,
// naive→packed, naive→fused, serial→parallel.

const (
	benchFeats = 32
	benchDim   = 4096
)

// benchSigns returns a benchFeats×benchDim ±1 projection plus a feature
// vector, the inputs both projection kernels consume.
func benchSigns() (m []float64, x []float64) {
	rng := rand.New(rand.NewSource(21))
	m = make([]float64, benchFeats*benchDim)
	for i := range m {
		if rng.Int63()&1 == 0 {
			m[i] = -1
		} else {
			m[i] = 1
		}
	}
	x = make([]float64, benchFeats)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return m, x
}

// BenchmarkProject isolates the F·B projection: the dense multiply-
// accumulate reference against the bit-packed sign-selected add/sub kernel
// (zero float multiplies, 64× smaller matrix).
func BenchmarkProject(b *testing.B) {
	m, x := benchSigns()
	out := make([]float64, benchDim)
	b.Run("dense-n32-D4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hdc.ProjectDense(nil, out, x, m)
		}
	})
	b.Run("packed-n32-D4096", func(b *testing.B) {
		sm, ok := hdc.PackSignsFlat(m, benchFeats, benchDim)
		if !ok {
			b.Fatal("pack failed")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sm.ProjectAccum(nil, out, x)
		}
	})
}

// benchEncoder builds the n=32, D=4096 nonlinear encoder. ProjBipolar runs
// the packed kernel; ProjGaussian keeps the dense multiply-accumulate loop,
// whose cost is value-independent — so it stands in for what the bipolar
// encoder cost before sign packing.
func benchEncoder(b *testing.B, kind encoding.Projection) *encoding.Nonlinear {
	b.Helper()
	enc, err := encoding.NewNonlinearProjection(rand.New(rand.NewSource(22)), benchFeats, benchDim, 1.0, kind)
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

func benchRow() []float64 {
	rng := rand.New(rand.NewSource(23))
	x := make([]float64, benchFeats)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkEncode measures one full Eq. 1 encoding (projection +
// trigonometric nonlinearity + sign quantization) at n=32, D=4096.
//
// The "naive" lane replicates the pre-kernel-layer algorithm inline — the
// row-sequential dense multiply-accumulate projection followed by a literal
// cos(p+b)·sin(p) per dimension — so the recorded before/after spans the
// actual change, not just whichever pieces stayed in-tree. The "packed"
// lanes run the production encoder (bit-packed quad-table projection,
// product-to-sum single-sin nonlinearity; see docs/PERFORMANCE.md).
func BenchmarkEncode(b *testing.B) {
	x := benchRow()
	b.Run("naive-n32-D4096", func(b *testing.B) {
		m, _ := benchSigns()
		rng := rand.New(rand.NewSource(22))
		bias := make([]float64, benchDim)
		center := make([]float64, benchDim)
		for j := range bias {
			bias[j] = rng.Float64() * 2 * math.Pi
			center[j] = -math.Sin(bias[j]) / 2
		}
		h := make([]float64, benchDim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range h {
				h[j] = 0
			}
			for k, f := range x {
				row := m[k*benchDim : (k+1)*benchDim]
				for j, s := range row {
					h[j] += f * s
				}
			}
			for j, p := range h {
				if math.Cos(p+bias[j])*math.Sin(p) >= center[j] {
					h[j] = 1
				} else {
					h[j] = -1
				}
			}
		}
	})
	b.Run("packed-n32-D4096", func(b *testing.B) {
		enc := benchEncoder(b, encoding.ProjBipolar)
		dst := hdc.NewVector(benchDim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.EncodeInto(nil, x, nil, dst, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed-binary-direct-n32-D4096", func(b *testing.B) {
		enc := benchEncoder(b, encoding.ProjBipolar)
		dst := hdc.NewBinary(benchDim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.EncodeInto(nil, x, nil, nil, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimilarityK measures the k-way cluster similarity stage (k=8,
// the paper's default model count): the per-cluster kernel loop against
// the fused kernel that reads the query once for all clusters.
func BenchmarkSimilarityK(b *testing.B) {
	const k = 8
	rng := rand.New(rand.NewSource(25))
	q := hdc.RandomGaussian(rng, benchDim)
	qb := hdc.RandomBipolarBinary(rng, benchDim)
	cs := make([]hdc.Vector, k)
	cbs := make([]*hdc.Binary, k)
	for i := range cs {
		cs[i] = hdc.RandomBipolar(rng, benchDim)
		cbs[i] = hdc.RandomBipolarBinary(rng, benchDim)
	}
	sims := make([]float64, k)
	b.Run("cosine-naive-k8-D4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, c := range cs {
				sims[j] = hdc.Cosine(nil, q, c)
			}
		}
	})
	b.Run("cosine-fused-k8-D4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hdc.CosineK(nil, q, cs, sims)
		}
	})
	b.Run("hamming-naive-k8-D4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, c := range cbs {
				sims[j] = hdc.HammingSimilarity(nil, qb, c)
			}
		}
	})
	b.Run("hamming-fused-k8-D4096", func(b *testing.B) {
		// The contiguous-slab layout snapshots build (core.Model.Snapshot →
		// hdc.NewBinarySet); this is the kernel the serving hot path runs.
		set := hdc.NewBinarySet(cbs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set.HammingSimilarityK(nil, qb, sims)
		}
	})
}

// BenchmarkEnginePredict serves single predictions through a full engine
// (bipolar projection, k=8, D=4096): the end-to-end number the kernel work
// is ultimately about. Compare with BenchmarkEnginePredictMetricsOn/Off
// for the instrumentation overhead at the smaller D=2000 shape.
func BenchmarkEnginePredict(b *testing.B) {
	e, x := benchKernelEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernelEngine builds the k=8, D=4096 serving engine
// BenchmarkEnginePredict drives.
func benchKernelEngine(b *testing.B) (*Engine, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(26))
	train := &Dataset{Name: "bench", X: make([][]float64, 200), Y: make([]float64, 200)}
	for i := range train.X {
		row := make([]float64, benchFeats)
		var y float64
		for j := range row {
			row[j] = rng.NormFloat64()
			y += row[j]
		}
		train.X[i] = row
		train.Y[i] = y
	}
	enc := benchEncoder(b, encoding.ProjBipolar)
	m, err := core.New(enc, core.Config{Models: 8, Epochs: 3, Seed: 27})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(m)
	if err != nil {
		b.Fatal(err)
	}
	return e, train.X[0]
}
