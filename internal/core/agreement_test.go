package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"reghd/internal/dataset"
	"reghd/internal/hdc"
)

// assertLiveMatchesSnapshot checks that the live model and a freshly taken
// snapshot of it serve Float64bits-identical outputs and charge equal op
// counts over xs — the contract that lets both run the one prediction path
// over the same cluster slab.
func assertLiveMatchesSnapshot(t *testing.T, step string, m *Model, xs [][]float64) {
	t.Helper()
	snap := m.Snapshot()
	ac := &hdc.AtomicCounter{}
	snap.SetCounter(ac)
	m.InferCounter = &hdc.Counter{}
	defer func() { m.InferCounter = nil }()
	for i, x := range xs {
		live, err := m.Predict(x)
		if err != nil {
			t.Fatalf("%s: live predict: %v", step, err)
		}
		frozen, err := snap.Predict(x)
		if err != nil {
			t.Fatalf("%s: snapshot predict: %v", step, err)
		}
		if math.Float64bits(live) != math.Float64bits(frozen) {
			t.Fatalf("%s: row %d: live %v, snapshot %v", step, i, live, frozen)
		}
	}
	if got, want := ac.Snapshot(), m.InferCounter.Snapshot(); got != want {
		t.Fatalf("%s: op counts diverge: snapshot %v, live %v", step, got, want)
	}
}

// TestLiveModelMatchesSnapshot drives every in-place write path of the live
// model — streaming updates plus a shadow refresh, the quantized merge vote,
// state adoption, fault-injection bit flips, and a checkpoint round trip —
// and after each one requires the live model and a fresh snapshot to agree
// bit for bit, for every cluster × prediction mode.
func TestLiveModelMatchesSnapshot(t *testing.T) {
	all := makeLinear(rand.New(rand.NewSource(21)), 160, 3, 0.05)
	train, stream, probe := all.X[:100], all.X[100:140], all.X[140:]
	trainY, streamY := all.Y[:100], all.Y[100:140]
	for _, cm := range []ClusterMode{ClusterInteger, ClusterBinary, ClusterNaiveBinary} {
		for _, pm := range []PredictMode{PredictFull, PredictBinaryQuery, PredictBinaryModel, PredictBinaryBoth} {
			t.Run(fmt.Sprintf("%s/%s", cm, pm), func(t *testing.T) {
				cfg := Config{Models: 5, Epochs: 2, Seed: 11, ClusterMode: cm, PredictMode: pm}
				m := newModel(t, 3, 320, cfg)
				if _, err := m.Fit(&dataset.Dataset{Name: "lin", X: train, Y: trainY}); err != nil {
					t.Fatal(err)
				}
				assertLiveMatchesSnapshot(t, "fit", m, probe)

				for i, x := range stream[:20] {
					if err := m.PartialFit(x, streamY[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.RefreshShadows(train[:32], trainY[:32]); err != nil {
					t.Fatal(err)
				}
				assertLiveMatchesSnapshot(t, "partialfit+refresh", m, probe)

				w := m.Clone()
				w.MarkSync()
				for i, x := range stream[20:] {
					if err := w.PartialFit(x, streamY[20+i]); err != nil {
						t.Fatal(err)
					}
				}
				delta, err := w.Delta()
				if err != nil {
					t.Fatal(err)
				}
				if pm.UsesBinaryModel() || cm == ClusterBinary {
					err = m.MergeQuantized(delta)
				} else {
					err = m.Merge(delta)
				}
				if err != nil {
					t.Fatal(err)
				}
				assertLiveMatchesSnapshot(t, "merge", m, probe)

				if err := w.RefreshShadows(nil, nil); err != nil {
					t.Fatal(err)
				}
				if err := m.AdoptState(w); err != nil {
					t.Fatal(err)
				}
				assertLiveMatchesSnapshot(t, "adopt", m, probe)

				fv := m.FaultView()
				for i, b := range fv.ClustersBin {
					b.FlipBits([]int{i, 63, 64, 200 + i})
				}
				for _, b := range fv.ModelsBin {
					b.FlipBits([]int{1, 100})
				}
				assertLiveMatchesSnapshot(t, "fault-flips", m, probe)

				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				assertLiveMatchesSnapshot(t, "save-load", back, probe)
				for _, x := range probe {
					a, _ := m.Predict(x)
					b, _ := back.Predict(x)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("save-load: restored model predicts %v, original %v", b, a)
					}
				}
			})
		}
	}
}
