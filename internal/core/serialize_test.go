package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"reghd/internal/dataset"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// deltaCRC is the CRC32-C table reseal uses; checkpoints and deltas share
// the checksum of internal/wire.
var deltaCRC = crc32.MakeTable(crc32.Castagnoli)

var updateGolden = flag.Bool("update", false, "rewrite the golden checkpoints under testdata/")

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single-full", Config{Models: 1, Epochs: 5, Seed: 1}},
		{"multi-binary", Config{Models: 4, Epochs: 5, Seed: 2, ClusterMode: ClusterBinary, PredictMode: PredictBinaryBoth}},
		{"multi-bquery", Config{Models: 3, Epochs: 5, Seed: 3, PredictMode: PredictBinaryQuery}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := makeLinear(rand.New(rand.NewSource(7)), 200, 3, 0.05)
			m := newModel(t, 3, 512, tc.cfg)
			if _, err := m.Fit(all); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				want, err := m.Predict(all.X[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := back.Predict(all.X[i])
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Fatalf("prediction %d differs after round trip: %v vs %v", i, want, got)
				}
			}
			if back.Models() != m.Models() || back.Dim() != m.Dim() {
				t.Fatal("shape changed after round trip")
			}
		})
	}
}

// TestSaveLoadEncoders round-trips a model over every encoder with a
// checkpoint section: predictions stay Float64bits-identical and charge
// the same primitive operations.
func TestSaveLoadEncoders(t *testing.T) {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	gaussian, err := encoding.NewNonlinear(rng(1), 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	bipolar, err := encoding.NewNonlinearProjection(rng(2), 4, 256, 2, encoding.ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	idLevel, err := encoding.NewIDLevel(rng(3), 4, 256, 16, -3, 3)
	if err != nil {
		t.Fatal(err)
	}
	step, err := encoding.NewNonlinear(rng(4), 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	sequence, err := encoding.NewSequence(step, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		enc  encoding.Encoder
	}{
		{"nonlinear-gaussian", gaussian},
		{"nonlinear-bipolar", bipolar},
		{"id-level", idLevel},
		{"sequence", sequence},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.enc, Config{Models: 4, Epochs: 3, Seed: 5, ClusterMode: ClusterBinary})
			if err != nil {
				t.Fatal(err)
			}
			all := makeLinear(rng(6), 120, 4, 0.05)
			if _, err := m.Fit(all); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			m.InferCounter, back.InferCounter = &hdc.Counter{}, &hdc.Counter{}
			for i, x := range all.X[:16] {
				want, err := m.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				got, err := back.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("row %d: %v after round trip, want %v", i, got, want)
				}
			}
			if *m.InferCounter != *back.InferCounter {
				t.Fatalf("restored model charges %v, original %v", back.InferCounter, m.InferCounter)
			}
		})
	}
}

func TestSaveLoadFile(t *testing.T) {
	all := makeLinear(rand.New(rand.NewSource(8)), 100, 2, 0.05)
	m := newModel(t, 2, 256, Config{Models: 2, Epochs: 3, Seed: 4})
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Predict(all.X[0])
	got, _ := back.Predict(all.X[0])
	if want != got {
		t.Fatal("file round trip changed predictions")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := Load(strings.NewReader("not a gob stream"))
	if !errors.Is(err, ErrCorruptModel) || !strings.Contains(err.Error(), "not a framed reghd checkpoint") {
		t.Fatalf("garbage: got %v", err)
	}
}

func TestLoadedModelContinuesTraining(t *testing.T) {
	all := makeLinear(rand.New(rand.NewSource(9)), 300, 3, 0.05)
	m := newModel(t, 3, 512, Config{Models: 1, Epochs: 3, Tol: 1e-12, Patience: 1000, Seed: 5})
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Evaluate(all)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Fit(all); err != nil {
		t.Fatal(err)
	}
	after, _ := back.Evaluate(all)
	if after >= before {
		t.Fatalf("continued training should improve training MSE: before %v after %v", before, after)
	}
}

// section is one region of a checkpoint frame and the offset it ends at.
type section struct {
	name string
	end  int
}

// sectionEnds returns the non-empty sections of a bare-model checkpoint
// of m (with a Nonlinear encoder), in frame order. It restates the layout
// documented in serialize.go.
func sectionEnds(m *Model) []section {
	enc := m.enc.(*encoding.Nonlinear)
	dim, words := enc.Dim(), (enc.Dim()+63)/64
	lens := []struct {
		name string
		n    int
	}{
		{"magic", 5},
		{"header", 8 * 4},
		{"config", checkpointConfigLen},
		{"encoder", 1 + 4 + 4 + 8 + 8*(enc.Features()+1)*dim},
		{"models", 8 * len(m.models) * dim},
		{"clusters", 8 * len(m.clusters) * dim},
		{"binary-clusters", 8 * len(m.clustersBin) * words},
		{"binary-models", 8 * len(m.modelsBin) * words},
		{"model-scales", 8 * len(m.modelScale)},
		{"assignments", 8 * len(m.assignN)},
		{"trailer", 4},
	}
	var out []section
	end := 0
	for _, l := range lens {
		if l.n > 0 {
			end += l.n
			out = append(out, section{l.name, end})
		}
	}
	return out
}

// corruptions returns the damaged variants of a valid checkpoint raw of m
// that every loader must reject as ErrCorruptModel: truncation
// at each section boundary, a flipped bit in each section, a wrong magic
// or version, header counts implying an oversized allocation, and
// trailing bytes.
func corruptions(t *testing.T, raw []byte, m *Model) map[string][]byte {
	t.Helper()
	ends := sectionEnds(m)
	if got := ends[len(ends)-1].end; got != len(raw) {
		t.Fatalf("layout accounts for %d bytes, checkpoint has %d", got, len(raw))
	}
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		f(b)
		return reseal(b)
	}
	out := map[string][]byte{
		"bad-magic":        edit(func(b []byte) { copy(b, "RHdw") }),
		"bad-version":      edit(func(b []byte) { b[4]++ }),
		"trailing-garbage": append(append([]byte(nil), raw...), 0xAB),
		"oversized-dim-and-models": edit(func(b []byte) {
			binary.LittleEndian.PutUint32(b[5:], 1<<24)
			binary.LittleEndian.PutUint32(b[13:], 1<<16)
		}),
		"oversized-scaler": edit(func(b []byte) { binary.LittleEndian.PutUint32(b[9:], 1<<24) }),
		"count-beyond-bound": edit(func(b []byte) {
			binary.LittleEndian.PutUint32(b[13:], math.MaxUint32)
		}),
	}
	start := 0
	for _, s := range ends {
		out["truncated-before-"+s.name] = raw[:start]
		out["truncated-inside-"+s.name] = raw[:(start+s.end)/2]
		for _, off := range []int{start, (start + s.end) / 2, s.end - 1} {
			b := append([]byte(nil), raw...)
			b[off] ^= 1 << uint(off%8)
			out[fmt.Sprintf("flipped-%s-%d", s.name, off)] = b
		}
		start = s.end
	}
	return out
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loadBound is the most a rejected load of size bytes may allocate: the
// decoded sections, at most the file's size, plus one read buffer no
// larger than the file and a little bookkeeping.
func loadBound(size int) uint64 { return 2*uint64(size) + 16<<10 }

func TestLoadCorruptFile(t *testing.T) {
	m := trainedSmall(t, Config{Models: 2, Epochs: 3, Seed: 3})
	dir := t.TempDir()
	good := filepath.Join(dir, "model.gob")
	if err := m.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	// Structurally malformed checkpoints: their frames are intact, but
	// their stores do not match the configuration or the encoder.
	bin := trainedSmall(t, Config{Models: 4, Epochs: 3, Seed: 3, ClusterMode: ClusterBinary, PredictMode: PredictBinaryBoth})
	reshaped := func(edit func(*Model)) []byte {
		c := bin.Clone()
		edit(c)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"truncated": raw[:len(raw)/2],
		"empty":     nil,
		"garbage":   []byte("not a gob model at all"),
		"clusters-bin-wrong-dim": reshaped(func(c *Model) {
			c.clustersBin = append([]*hdc.Binary{hdc.NewBinary(bin.dim + 1)}, c.clustersBin[1:]...)
		}),
		"clusters-bin-short": reshaped(func(c *Model) { c.clustersBin = c.clustersBin[:2] }),
		"models-bin-short":   reshaped(func(c *Model) { c.modelsBin = c.modelsBin[:1] }),
		"model-scale-short":  reshaped(func(c *Model) { c.modelScale = c.modelScale[:3] }),
		"clusters-wrong-dim": reshaped(func(c *Model) {
			c.clusters = append([]hdc.Vector{hdc.NewVector(bin.dim - 1)}, c.clusters[1:]...)
		}),
		"clusters-missing":    reshaped(func(c *Model) { c.clusters = nil }),
		"assignments-missing": reshaped(func(c *Model) { c.assignN = nil }),
		"unknown-cluster-mode": reshaped(func(c *Model) {
			c.cfg.ClusterMode = 7
		}),
		"shadow-tail-bits": func() []byte {
			// D=256 leaves no tail; rebuild at D=100, whose last word
			// must keep its top 28 bits clear.
			odd := newModel(t, 3, 100, Config{Models: 2, Epochs: 1, Seed: 3, ClusterMode: ClusterBinary})
			if _, err := odd.Fit(makeLinear(rand.New(rand.NewSource(7)), 40, 3, 0.05)); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := odd.Save(&buf); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			for _, s := range sectionEnds(odd) {
				if s.name == "binary-clusters" {
					b[s.end-1] |= 0x80 // top bit of the slab's last word
				}
			}
			return reseal(b)
		}(),
	}
	for name, b := range corruptions(t, raw, m) {
		cases[name] = b
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(dir, name)
			if err := os.WriteFile(bad, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			if alloc := allocatedBy(func() { _, err = LoadFile(bad) }); alloc > loadBound(len(b)) {
				t.Errorf("rejecting a %d-byte file allocated %d bytes", len(b), alloc)
			}
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("want ErrCorruptModel, got %v", err)
			}
		})
	}

	// A missing file is an I/O error, not a corrupt checkpoint.
	if _, err := LoadFile(filepath.Join(dir, "nope.gob")); errors.Is(err, ErrCorruptModel) {
		t.Fatal("missing file misreported as corrupt")
	}
}

// golden names the v1 checkpoints under testdata/ and how they were built.
var golden = []struct {
	file   string
	cfg    Config
	scaler bool
}{
	{"model.gob", Config{Models: 4, Epochs: 3, Seed: 1}, false},
	{"binary.gob", Config{Models: 4, Epochs: 3, Seed: 2, ClusterMode: ClusterBinary, PredictMode: PredictBinaryBoth}, false},
	{"pipeline.gob", Config{Models: 4, Epochs: 3, Seed: 3}, true},
}

// goldenRows are the inputs whose predictions the golden test pins.
func goldenRows() [][]float64 { return makeLinear(rand.New(rand.NewSource(11)), 6, 3, 0).X }

// predictCheckpoint returns the Float64bits of m's predictions of rows,
// through sc when it is non-nil.
func predictCheckpoint(t *testing.T, m *Model, sc *dataset.Scaler, rows [][]float64) []uint64 {
	t.Helper()
	out := make([]uint64, len(rows))
	for i, x := range rows {
		x = append([]float64(nil), x...)
		if sc != nil {
			if err := sc.TransformRow(x); err != nil {
				t.Fatal(err)
			}
		}
		y, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if sc != nil {
			y = sc.InverseY(y)
		}
		out[i] = math.Float64bits(y)
	}
	return out
}

// writeGolden trains and saves one golden checkpoint.
func writeGolden(t *testing.T, path string, cfg Config, withScaler bool) {
	t.Helper()
	all := makeLinear(rand.New(rand.NewSource(7)), 150, 3, 0.05)
	var sc *dataset.Scaler
	if withScaler {
		var err error
		if sc, err = dataset.FitScaler(all, true); err != nil {
			t.Fatal(err)
		}
		if all, err = sc.Transform(all); err != nil {
			t.Fatal(err)
		}
	}
	m := newModel(t, 3, 256, cfg)
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error { return m.SaveCheckpoint(w, sc) }); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGolden decodes the committed v1 checkpoints, pins their
// predictions bit for bit, and checks that saving a loaded checkpoint
// reproduces its bytes exactly. Run with -update to rewrite the files
// after a deliberate format change (and bump the format version).
func TestCheckpointGolden(t *testing.T) {
	for _, g := range golden {
		t.Run(g.file, func(t *testing.T) {
			path := filepath.Join("testdata", g.file)
			if *updateGolden {
				writeGolden(t, path, g.cfg, g.scaler)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, sc, err := LoadCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if (sc != nil) != g.scaler {
				t.Fatalf("scaler section present = %v, want %v", sc != nil, g.scaler)
			}
			got := predictCheckpoint(t, m, sc, goldenRows())
			if *updateGolden {
				t.Logf("%s want: %#v", g.file, got)
			} else if fmt.Sprint(got) != fmt.Sprint(goldenWant[g.file]) {
				t.Fatalf("predictions %#v, want %#v", got, goldenWant[g.file])
			}
			var again bytes.Buffer
			if err := m.SaveCheckpoint(&again, sc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Fatal("Save(Load(b)) differs from b")
			}
		})
	}
}

// goldenWant pins the Float64bits of each golden checkpoint's predictions
// of goldenRows.
var goldenWant = map[string][]uint64{
	"model.gob":    {0x3fd0c7301206779d, 0x3ffe0b8b80657129, 0xbffa48335fce70eb, 0xbfd1857b473308b0, 0xbff283d1f25fbaaf, 0x3ff9839a71d316fe},
	"binary.gob":   {0x3fd6b7873c75f184, 0x4001403ffacb59bc, 0xc001b0379bb8d40c, 0xbfac880b26b958ca, 0xbfdd99a50740fa8e, 0x3ff1ea34a2883e53},
	"pipeline.gob": {0x3f8cfaa506579840, 0x3fff5c93aa89eeb2, 0xbff674fedbefa6cd, 0x3fb3c60d15d491ec, 0xbff28842b9dfd7e3, 0x3ff823fb7caceda9},
}

// FuzzLoad hammers LoadCheckpoint with arbitrary bytes: it must never
// panic, every rejection must wrap ErrCorruptModel, and any input it
// accepts must re-save to a stable fixed point (save → load → save is
// byte-identical from the first re-save on).
func FuzzLoad(f *testing.F) {
	for _, g := range golden {
		raw, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(checkpointFormat.Magic))
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, sc, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("load error does not wrap ErrCorruptModel: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := m.SaveCheckpoint(&first, sc); err != nil {
			t.Fatalf("accepted checkpoint failed to re-save: %v", err)
		}
		m2, sc2, err := LoadCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-saved checkpoint failed to load: %v", err)
		}
		var second bytes.Buffer
		if err := m2.SaveCheckpoint(&second, sc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save/load/save is not a fixed point")
		}
	})
}
