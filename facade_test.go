package reghd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestPipelineSaveLoadRoundTrip(t *testing.T) {
	all := makeData(11, 500)
	enc, _ := NewEncoder(2, 512, 12)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	m, _ := NewModel(enc, cfg)
	pipe := NewPipeline(m)
	if _, err := pipe.Fit(all); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		want, err := pipe.Predict(all.X[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Predict(all.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("row %d: %v vs %v after round trip", i, want, got)
		}
	}
}

func TestPipelineSaveLoadFile(t *testing.T) {
	all := makeData(13, 300)
	enc, _ := NewEncoder(2, 256, 14)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	m, _ := NewModel(enc, cfg)
	pipe := NewPipeline(m)
	if _, err := pipe.Fit(all); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pipe.gob")
	if err := pipe.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPipelineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pipe.Predict(all.X[0])
	b, _ := back.Predict(all.X[0])
	if a != b {
		t.Fatal("file round trip changed predictions")
	}
	// SaveFile is atomic: a save that fails leaves the previous checkpoint
	// loadable and no temporary file behind.
	if err := NewPipeline(m).SaveFile(path); err == nil {
		t.Fatal("unfitted pipeline saved")
	}
	if _, err := LoadPipelineFile(path); err != nil {
		t.Fatalf("previous checkpoint lost: %v", err)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("%d directory entries after a failed save, want 1", len(entries))
	}
	if _, err := LoadPipelineFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPipelineSaveUnfitted(t *testing.T) {
	enc, _ := NewEncoder(2, 64, 1)
	m, _ := NewModel(enc, DefaultConfig())
	pipe := NewPipeline(m)
	if err := pipe.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("unfitted pipeline accepted Save")
	}
}

func TestClassifierFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var xs [][]float64
	var labels []int
	for i := 0; i < 300; i++ {
		c := rng.Intn(2)
		off := float64(c)*4 - 2
		xs = append(xs, []float64{off + rng.NormFloat64(), off + rng.NormFloat64()})
		labels = append(labels, c)
	}
	enc, err := NewEncoderBandwidth(2, 1000, 2.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := NewClassifier(enc, ClassifierConfig{Classes: 2, Epochs: 10, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(xs, labels); err != nil {
		t.Fatal(err)
	}
	acc, err := clf.Accuracy(xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("separable blobs accuracy %v too low", acc)
	}
}

func TestSequenceEncoderFacade(t *testing.T) {
	base, err := NewEncoderBandwidth(1, 512, 0.8, 23)
	if err != nil {
		t.Fatal(err)
	}
	seqEnc, err := NewSequenceEncoder(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seqEnc.Features() != 4 || seqEnc.Dim() != 512 {
		t.Fatalf("sequence encoder shape wrong: %d/%d", seqEnc.Features(), seqEnc.Dim())
	}
	m, err := NewModel(seqEnc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 512 {
		t.Fatal("model over sequence encoder wrong dim")
	}
	if _, err := NewSequenceEncoder(nil, 4); err == nil {
		t.Fatal("nil base accepted")
	}
}

func TestQAgentFacade(t *testing.T) {
	cfg := DefaultQAgentConfig()
	cfg.Dim = 256
	agent, err := NewQAgent(&Chase{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := agent.Train(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes != 5 {
		t.Fatalf("episodes %d", res.Episodes)
	}
	if _, err := agent.Evaluate(2); err != nil {
		t.Fatal(err)
	}
	env := &CartPole{MaxSteps: 10}
	rng := rand.New(rand.NewSource(24))
	s := env.Reset(rng)
	if len(s) != 4 {
		t.Fatal("cartpole facade state wrong")
	}
}

func TestModelSparsifyFacade(t *testing.T) {
	all := makeData(25, 400)
	enc, _ := NewEncoder(2, 512, 26)
	cfg := DefaultConfig()
	cfg.Epochs = 8
	cfg.PredictMode = PredictBinaryQuery
	m, _ := NewModel(enc, cfg)
	pipe := NewPipeline(m)
	if _, err := pipe.Fit(all); err != nil {
		t.Fatal(err)
	}
	if err := m.Sparsify(0.5); err != nil {
		t.Fatal(err)
	}
	if s := m.ModelSparsity(); math.Abs(s-0.5) > 0.02 {
		t.Fatalf("sparsity %v, want ≈0.5", s)
	}
}

func TestPredictBatchParallelFacade(t *testing.T) {
	all := makeData(27, 300)
	enc, _ := NewEncoder(2, 256, 28)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	m, _ := NewModel(enc, cfg)
	pipe := NewPipeline(m)
	if _, err := pipe.Fit(all); err != nil {
		t.Fatal(err)
	}
	// Parallel batch prediction on standardized rows must equal sequential.
	sc, _ := FitScaler(all, true)
	std, _ := sc.Transform(all)
	seqP, err := m.PredictBatch(std.X[:50])
	if err != nil {
		t.Fatal(err)
	}
	parP, err := m.PredictBatchParallel(std.X[:50], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqP {
		if seqP[i] != parP[i] {
			t.Fatal("parallel facade differs from sequential")
		}
	}
}

// savedPipeline fits a small pipeline and returns it with its checkpoint.
func savedPipeline(t *testing.T) (*Pipeline, []byte) {
	t.Helper()
	enc, _ := NewEncoder(2, 256, 16)
	cfg := DefaultConfig()
	cfg.Models = 4
	cfg.Epochs = 3
	m, _ := NewModel(enc, cfg)
	pipe := NewPipeline(m)
	if _, err := pipe.Fit(makeData(15, 200)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return pipe, buf.Bytes()
}

// TestPipelineLoadCorrupt runs the checkpoint corruption matrix through the
// facade: truncation at each section boundary, a flipped bit in each
// section, a wrong magic or version, and header counts implying an
// oversized allocation all fail with ErrCorruptModel through LoadPipeline,
// LoadPipelineFile, LoadModel and the registry.
func TestPipelineLoadCorrupt(t *testing.T) {
	_, raw := savedPipeline(t)
	// Section lengths of a 2-feature, D=256, k=4 pipeline checkpoint with
	// integer clusters and models: magic+version, header, config, scaler,
	// encoder, models, clusters, assignment counts, CRC trailer.
	var bounds []int
	end := 0
	for _, n := range []int{5, 8 * 4, 7*8 + 5*8 + 1 + 8, 1 + 16 + 16*2, 1 + 4 + 4 + 8 + 8*(2+1)*256, 8 * 4 * 256, 8 * 4 * 256, 8 * 4, 4} {
		end += n
		bounds = append(bounds, end)
	}
	if end != len(raw) {
		t.Fatalf("layout accounts for %d bytes, checkpoint has %d", end, len(raw))
	}
	reseal := func(b []byte) []byte {
		body := b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	}
	edit := func(f func([]byte)) []byte {
		b := append([]byte(nil), raw...)
		f(b)
		return reseal(b)
	}
	cases := map[string][]byte{
		"bad-magic":   edit(func(b []byte) { copy(b, "GOB!") }),
		"bad-version": edit(func(b []byte) { b[4] = 2 }),
		"oversized-counts": edit(func(b []byte) {
			binary.LittleEndian.PutUint32(b[5:], 1<<24)
			binary.LittleEndian.PutUint32(b[13:], 1<<16)
		}),
		"oversized-scaler": edit(func(b []byte) { binary.LittleEndian.PutUint32(b[9:], 1<<24) }),
	}
	prev := 0
	for i, end := range bounds {
		cases[fmt.Sprintf("truncated-at-%d", prev)] = raw[:prev]
		for _, off := range []int{prev, (prev + end) / 2, end - 1} {
			b := append([]byte(nil), raw...)
			b[off] ^= 0x10
			cases[fmt.Sprintf("section-%d-flip-%d", i, off)] = b
		}
		prev = end
	}
	dir := t.TempDir()
	for name, b := range cases {
		path := filepath.Join(dir, name+ModelExt)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(bytes.NewReader(b)); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: LoadPipeline: %v", name, err)
		}
		if _, err := LoadPipelineFile(path); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: LoadPipelineFile: %v", name, err)
		}
		if _, err := LoadModel(bytes.NewReader(b)); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: LoadModel: %v", name, err)
		}
	}
	reg, err := NewRegistry(RegistryConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Predict("bad-magic", []float64{1, 2}); !errors.Is(err, ErrModelLoad) || !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("registry: %v", err)
	}
}

// TestCheckpointKinds pins that each loader takes its own kind of
// checkpoint and refuses the other without calling it corrupt, and that
// the registry serves both from one decode.
func TestCheckpointKinds(t *testing.T) {
	pipe, raw := savedPipeline(t)
	var model bytes.Buffer
	if err := pipe.Model().Save(&model); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(raw)); err == nil || errors.Is(err, ErrCorruptModel) {
		t.Fatalf("LoadModel of a pipeline checkpoint: %v", err)
	}
	if _, err := LoadPipeline(bytes.NewReader(model.Bytes())); err == nil || errors.Is(err, ErrCorruptModel) {
		t.Fatalf("LoadPipeline of a model checkpoint: %v", err)
	}
	dir := t.TempDir()
	for name, b := range map[string][]byte{"pipe": raw, "bare": model.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name+ModelExt), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := NewRegistry(RegistryConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	x := makeData(17, 1).X[0]
	for name, want := range map[string]func() (float64, error){
		"pipe": func() (float64, error) { return pipe.Predict(x) },
		"bare": func() (float64, error) { return pipe.Model().Predict(x) },
	} {
		w, err := want()
		if err != nil {
			t.Fatal(err)
		}
		got, err := reg.Predict(name, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: registry predicts %v, want %v", name, got, w)
		}
	}
}
