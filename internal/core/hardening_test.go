package core

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trainedSmall returns a small trained multi-model fixture.
func trainedSmall(t *testing.T, cfg Config) *Model {
	t.Helper()
	all := makeLinear(rand.New(rand.NewSource(7)), 150, 3, 0.05)
	m := newModel(t, 3, 256, cfg)
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPartialFitRejectsInvalidSamples(t *testing.T) {
	m := trainedSmall(t, Config{Models: 4, Epochs: 3, Seed: 1})
	before, err := m.Predict([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    []float64
		y    float64
	}{
		{"nan-target", []float64{0.1, 0.2, 0.3}, math.NaN()},
		{"inf-target", []float64{0.1, 0.2, 0.3}, math.Inf(1)},
		{"nan-feature", []float64{0.1, math.NaN(), 0.3}, 1},
		{"inf-feature", []float64{math.Inf(-1), 0.2, 0.3}, 1},
		{"short-row", []float64{0.1, 0.2}, 1},
		{"long-row", []float64{0.1, 0.2, 0.3, 0.4}, 1},
		{"nil-row", nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := m.PartialFit(tc.x, tc.y)
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("want ErrInvalidInput, got %v", err)
			}
		})
	}
	// The rejected samples must not have touched any learned state.
	after, err := m.Predict([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("rejected samples changed the model: %v -> %v", before, after)
	}
}

func TestValidateRow(t *testing.T) {
	if err := ValidateRow([]float64{1, 2}, 2); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := ValidateRow([]float64{1, 2}, 0); err != nil {
		t.Fatalf("length check not skipped for features=0: %v", err)
	}
	if err := ValidateRow([]float64{1, 2}, 3); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput for wrong arity, got %v", err)
	}
	if err := ValidateTarget(2.5); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
}

func TestSaveFileAtomic(t *testing.T) {
	m := trainedSmall(t, Config{Models: 2, Epochs: 3, Seed: 2})
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")

	// First save creates the file; a second save must replace it atomically
	// and leave no temp litter behind, and so must a failed third.
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialFit([]float64{0.1, 0.2, 0.3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// A write that fails part-way leaves that checkpoint in place.
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if err := m.Save(w); err != nil {
			return err
		}
		_, _ = w.Write([]byte("half of another checkpoint"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the write error, got %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Predict([]float64{0.1, 0.2, 0.3})
	got, err := back.Predict([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("reloaded checkpoint predicts differently: %v vs %v", want, got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := trainedSmall(t, Config{Models: 4, Epochs: 3, Seed: 4, ClusterMode: ClusterBinary, PredictMode: PredictBinaryBoth})
	c := m.Clone()
	x := []float64{0.3, -0.2, 0.5}
	want, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("clone predicts differently: %v vs %v", want, got)
	}
	// Corrupting the clone's stores must not move the original — including
	// the binary clusters, which live in a per-model slab: a slab shared by
	// mistake would carry the clone's flips into the original's similarity
	// search.
	fv := c.FaultView()
	for _, mb := range fv.ModelsBin {
		mb.FlipBits([]int{0, 1, 2, 3, 4, 5, 6, 7})
	}
	for _, cv := range fv.Clusters {
		cv[0] += 1000
	}
	clusterBits := m.FaultView().ClustersBin[0].Clone()
	for _, cb := range fv.ClustersBin {
		cb.FlipBits([]int{0, 1, 2, 3, 64, 65, 128, 255})
	}
	if !m.FaultView().ClustersBin[0].Equal(clusterBits) {
		t.Fatal("flipping the clone's binary clusters changed the original's")
	}
	if moved, err := c.Predict(x); err != nil || moved == want {
		t.Fatalf("clone flips did not reach the clone's own prediction (%v, err %v)", moved, err)
	}
	after, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if after != want {
		t.Fatalf("mutating the clone changed the original: %v -> %v", want, after)
	}
}

func TestPredictBatchParallelCtxCancellation(t *testing.T) {
	m := trainedSmall(t, Config{Models: 2, Epochs: 3, Seed: 5})
	s := m.Snapshot()
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = []float64{0.1, 0.2, 0.3}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PredictBatchParallelCtx(ctx, xs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// And an unexpired context serves the whole batch.
	ys, err := s.PredictBatchParallelCtx(context.Background(), xs, 4)
	if err != nil || len(ys) != len(xs) {
		t.Fatalf("clean batch failed: %v (%d rows)", err, len(ys))
	}
}
