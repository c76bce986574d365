package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reghd/internal/dataset"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// counterGoldenFile pins, for every encoder kind × predict mode × entry
// point, the exact hdc.Counter charge and an FNV-64 digest of the entry
// point's outputs. It is the op-accounting contract of the encode path:
// however the encoders and core's encode plumbing are restructured, each
// entry point must charge the same ops and produce the same bits. Run
// TestCounterGolden with -update to rewrite it.
const counterGoldenFile = "counters.golden"

// counterEncoders builds the four encoder kinds the table covers, each over
// 4 input features at D=200 (not a multiple of 64, so packed tails are
// exercised).
func counterEncoders(t *testing.T) []struct {
	name string
	enc  encoding.Encoder
} {
	t.Helper()
	const feats, dim = 4, 200
	gauss, err := encoding.NewNonlinear(rand.New(rand.NewSource(61)), feats, dim)
	if err != nil {
		t.Fatal(err)
	}
	bip, err := encoding.NewNonlinearProjection(rand.New(rand.NewSource(62)), feats, dim, 2, encoding.ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	idl, err := encoding.NewIDLevel(rand.New(rand.NewSource(63)), feats, dim, 16, -3, 3)
	if err != nil {
		t.Fatal(err)
	}
	step, err := encoding.NewNonlinear(rand.New(rand.NewSource(64)), feats/2, dim)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := encoding.NewSequence(step, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		enc  encoding.Encoder
	}{
		{"nonlinear-gaussian", gauss},
		{"nonlinear-bipolar", bip},
		{"idlevel", idl},
		{"sequence", seq},
	}
}

// digest accumulates the Float64bits / word bits of an entry point's
// outputs.
type digest struct{ h uint64 }

func (d *digest) floats(vs ...float64) {
	f := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		f.Write(b[:])
	}
	d.h = d.h*31 + f.Sum64()
}

func (d *digest) words(ws []uint64) {
	f := fnv.New64a()
	fmt.Fprint(f, ws)
	d.h = d.h*31 + f.Sum64()
}

// counterTable runs every entry point and renders one line per
// (encoder, mode, entry point): its Counter charge and output digest.
func counterTable(t *testing.T) string {
	t.Helper()
	data := makeLinear(rand.New(rand.NewSource(65)), 60, 4, 0.05)
	modes := []struct {
		name    string
		predict PredictMode
		cluster ClusterMode
	}{
		{"full", PredictFull, ClusterInteger},
		{"binquery", PredictBinaryQuery, ClusterBinary},
		{"binboth", PredictBinaryBoth, ClusterBinary},
	}
	var out strings.Builder
	for _, ec := range counterEncoders(t) {
		for _, md := range modes {
			cfg := DefaultConfig()
			cfg.Models = 4
			cfg.Epochs = 3
			cfg.Seed = 9
			cfg.PredictMode = md.predict
			cfg.ClusterMode = md.cluster
			row := func(op string, ctr [hdc.NumOps]uint64, d digest) {
				fmt.Fprintf(&out, "%s/%s/%s ops=%v out=%016x\n", ec.name, md.name, op, ctr, d.h)
			}
			m, err := New(ec.enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			counterEntryPoints(t, m, data, row)

			par, err := New(ec.enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ctr hdc.Counter
			par.TrainCounter = &ctr
			if _, err := par.FitParallel(data, 2); err != nil {
				t.Fatal(err)
			}
			var d digest
			preds, err := par.PredictBatch(data.X)
			if err != nil {
				t.Fatal(err)
			}
			d.floats(preds...)
			row("FitParallel", ctr.Snapshot(), d)
		}
	}
	return out.String()
}

// counterEntryPoints drives one model through Fit, Predict,
// Snapshot.Predict, EncodeBinary, AssignCluster, PartialFit and
// RefreshShadows, in that order, reporting each one's charge and digest.
func counterEntryPoints(t *testing.T, m *Model, data *dataset.Dataset, row func(string, [hdc.NumOps]uint64, digest)) {
	t.Helper()
	var ctr hdc.Counter
	m.TrainCounter = &ctr
	res, err := m.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	var d digest
	d.floats(res.History...)
	row("Fit", ctr.Snapshot(), d)
	m.TrainCounter = nil

	ctr, d = hdc.Counter{}, digest{}
	m.InferCounter = &ctr
	for _, x := range data.X[:16] {
		y, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		d.floats(y)
	}
	row("Predict", ctr.Snapshot(), d)
	m.InferCounter = nil

	var actr hdc.AtomicCounter
	d = digest{}
	s := m.Snapshot()
	s.SetCounter(&actr)
	for _, x := range data.X[16:32] {
		y, err := s.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		d.floats(y)
	}
	row("Snapshot.Predict", actr.Snapshot(), d)

	// EncodeBinary and AssignCluster charge no counter; their rows pin
	// that along with the output bits.
	var tctr, ictr hdc.Counter
	m.TrainCounter, m.InferCounter = &tctr, &ictr
	d = digest{}
	for _, x := range data.X[:8] {
		b, err := m.EncodeBinary(x)
		if err != nil {
			t.Fatal(err)
		}
		d.words(b.Words)
	}
	tctr.AddCounter(&ictr)
	row("EncodeBinary", tctr.Snapshot(), d)
	tctr, ictr, d = hdc.Counter{}, hdc.Counter{}, digest{}
	for _, x := range data.X[:8] {
		c, sims, err := m.AssignCluster(x)
		if err != nil {
			t.Fatal(err)
		}
		d.floats(float64(c))
		d.floats(sims...)
	}
	tctr.AddCounter(&ictr)
	row("AssignCluster", tctr.Snapshot(), d)
	m.TrainCounter, m.InferCounter = nil, nil

	ctr, d = hdc.Counter{}, digest{}
	m.TrainCounter = &ctr
	for i, x := range data.X[32:52] {
		if err := m.PartialFit(x, data.Y[32+i]); err != nil {
			t.Fatal(err)
		}
	}
	preds, err := m.PredictBatch(data.X[:8])
	if err != nil {
		t.Fatal(err)
	}
	d.floats(preds...)
	row("PartialFit", ctr.Snapshot(), d)

	ctr, d = hdc.Counter{}, digest{}
	if err := m.RefreshShadows(data.X[40:56], data.Y[40:56]); err != nil {
		t.Fatal(err)
	}
	d.floats(m.calibA, m.calibB)
	preds, err = m.PredictBatch(data.X[:8])
	if err != nil {
		t.Fatal(err)
	}
	d.floats(preds...)
	row("RefreshShadows", ctr.Snapshot(), d)
	m.TrainCounter = nil
}

// TestCounterGolden reproduces the pinned Counter table exactly.
func TestCounterGolden(t *testing.T) {
	got := counterTable(t)
	path := filepath.Join("testdata", counterGoldenFile)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("table has %d lines, golden has %d", len(gl), len(wl))
	}
}
