package core

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/dataset"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// benchRows keeps the serial lane's output live, so the compiler cannot
// drop the work that produced it.
var benchRows []*hdc.Binary

// BenchmarkEncodeBatch measures encoding a 256-row training batch at the
// kernel benchmarks' serving shape (n=32, D=4096, bipolar projection) into
// packed rows. reghd-benchjson pairs the lanes serial→parallel.
//
// The "serial" lane replicates the pre-fix batch loop inline: a fresh
// D-length allocation per row, separate nonlinearize and quantize passes,
// then hdc.Pack, one row at a time. The "parallel" lane runs Model.prepare
// on the same rows for a PredictBinaryQuery model (S and packed only): the
// fused encode into per-worker scratch, each row copied into one word slab,
// rows fanned over GOMAXPROCS workers. On a single core the fusion and the
// missing per-row allocations carry the win; the fan-out adds its multiple
// only with ≥2 cores (see docs/PERFORMANCE.md "Flat spots").
func BenchmarkEncodeBatch(b *testing.B) {
	const feats, dim, rows = 32, 4096, 256
	rng := rand.New(rand.NewSource(24))
	data := &dataset.Dataset{X: make([][]float64, rows), Y: make([]float64, rows)}
	for i := range data.X {
		row := make([]float64, feats)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		data.X[i] = row
	}
	b.Run("serial-256rows-n32-D4096", func(b *testing.B) {
		srng := rand.New(rand.NewSource(21))
		signs := make([]float64, feats*dim)
		for i := range signs {
			signs[i] = 1
			if srng.Int63()&1 == 0 {
				signs[i] = -1
			}
		}
		sm, ok := hdc.PackSignsFlat(signs, feats, dim)
		if !ok {
			b.Fatal("pack failed")
		}
		prng := rand.New(rand.NewSource(22))
		bias := make([]float64, dim)
		center := make([]float64, dim)
		for j := range bias {
			bias[j] = prng.Float64() * 2 * math.Pi
			center[j] = -math.Sin(bias[j]) / 2
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := make([]*hdc.Binary, rows)
			for r, x := range data.X {
				h := make(hdc.Vector, len(bias)) // a run-time length: heap, as before the fix
				sm.ProjectAccum(nil, h, x)
				for j, p := range h {
					h[j] = 0.5*math.Sin(2*p+bias[j]) + center[j]
				}
				for j, v := range h {
					if v >= center[j] {
						h[j] = 1
					} else {
						h[j] = -1
					}
				}
				out[r] = hdc.Pack(nil, h)
			}
			benchRows = out
		}
	})
	b.Run("parallel-256rows-n32-D4096", func(b *testing.B) {
		enc, err := encoding.NewNonlinearProjection(rand.New(rand.NewSource(22)), feats, dim, 1.0, encoding.ProjBipolar)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.PredictMode = PredictBinaryQuery
		m, err := New(enc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.prepare(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
