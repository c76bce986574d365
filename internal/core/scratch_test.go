package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// TestPooledScratchReuse checks that encode fully overwrites pooled
// scratch: each row's prediction is bit-identical to one made on a fresh
// workspace, whichever row the pooled scratch served before it, across
// prediction and cluster modes and for the Model and Snapshot paths. It
// also checks that EncodeBinary hands out a copy, not the pooled row.
func TestPooledScratchReuse(t *testing.T) {
	const feats, dim = 3, 256
	data := makeLinear(rand.New(rand.NewSource(8)), 80, feats, 0.1)
	for _, tc := range []struct {
		name    string
		predict PredictMode
		cluster ClusterMode
	}{
		{"full-integer", PredictFull, ClusterInteger},
		{"binquery-binary", PredictBinaryQuery, ClusterBinary},
		{"binboth-binary", PredictBinaryBoth, ClusterBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := encoding.NewNonlinearProjection(rand.New(rand.NewSource(99)), feats, dim, 1.0, encoding.ProjBipolar)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Models = 4
			cfg.Epochs = 6
			cfg.Seed = 3
			cfg.PredictMode = tc.predict
			cfg.ClusterMode = tc.cluster
			m, err := New(enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Fit(data); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(data.X))
			for i, x := range data.X {
				if want[i], err = m.predict(nil, nil, x, newScratch(cfg.Models, dim, tc.predict.UsesRawQuery())); err != nil {
					t.Fatal(err)
				}
			}
			s := m.Snapshot()
			order := rand.New(rand.NewSource(4))
			for round := 0; round < 4; round++ {
				for _, i := range order.Perm(len(data.X)) {
					y, err := m.Predict(data.X[i])
					if err != nil {
						t.Fatal(err)
					}
					ys, err := s.Predict(data.X[i])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(y) != math.Float64bits(want[i]) || math.Float64bits(ys) != math.Float64bits(want[i]) {
						t.Fatalf("round %d row %d: model %v, snapshot %v, fresh scratch %v", round, i, y, ys, want[i])
					}
				}
			}
			first, err := m.EncodeBinary(data.X[0])
			if err != nil {
				t.Fatal(err)
			}
			keep := first.Clone()
			if _, err := m.EncodeBinary(data.X[1]); err != nil {
				t.Fatal(err)
			}
			if !first.Equal(keep) {
				t.Fatal("EncodeBinary's result changed under a later encode")
			}
		})
	}
}

// TestPartialFitAllocates0 pins the online update's allocation count: the
// encode runs in pooled scratch, so a warmed-up PartialFit allocates nothing.
func TestPartialFitAllocates0(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts")
	}
	data := makeLinear(rand.New(rand.NewSource(5)), 40, 4, 0.05)
	for _, predict := range []PredictMode{PredictFull, PredictBinaryQuery} {
		enc, err := encoding.NewNonlinear(rand.New(rand.NewSource(6)), 4, 512)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.PredictMode = predict
		cfg.ClusterMode = ClusterBinary
		m, err := New(enc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ctr hdc.Counter
		m.TrainCounter = &ctr
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.PartialFit(data.X[i%40], data.Y[i%40]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%v: PartialFit makes %v allocations per call, want 0", predict, allocs)
		}
	}
}

// TestPrepareAllocatesBlocks pins the training encode's allocations: apart
// from one raw block and one word block per ~1 MiB of raw values (256 rows
// at D=1024), their count stays a small constant whatever the row count,
// and their bytes stay within 10% of what the cache keeps — the packed
// words and the float32 raw values.
func TestPrepareAllocatesBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const feats, dim = 4, 1024
	enc, err := encoding.NewNonlinear(rand.New(rand.NewSource(7)), feats, dim)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(enc, DefaultConfig()) // PredictFull: caches raw and packed rows
	if err != nil {
		t.Fatal(err)
	}
	measure := func(rows int) (allocs, bytes uint64) {
		data := makeLinear(rand.New(rand.NewSource(8)), rows, feats, 0)
		if _, err := m.prepare(data); err != nil { // warm up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.prepare(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	const blockRows = (1 << 20) / (4 * dim)
	blocks := func(rows int) uint64 { return 2 * uint64((rows+blockRows-1)/blockRows) }
	// Worker start-up allocates a scheduling-dependent handful; 64 is far
	// below either row count, so a per-row allocation cannot hide in it.
	smallAllocs, _ := measure(200)
	allocs, bytes := measure(800)
	if smallAllocs-blocks(200) > 64 || allocs-blocks(800) > 64 {
		t.Fatalf("prepare makes %d allocations for 200 rows and %d for 800: more than its blocks and a constant", smallAllocs, allocs)
	}
	kept := uint64(800) * ((dim+63)/64*8 + dim*4)
	if float64(bytes) > 1.10*float64(kept) {
		t.Fatalf("prepare allocates %d bytes for 800 rows, keeps %d: more than 10%% garbage", bytes, kept)
	}
	t.Logf("800 rows: %d allocations, %d bytes (kept %d); 200 rows: %d allocations", allocs, bytes, kept, smallAllocs)
}
