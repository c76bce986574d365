package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"reghd/internal/dataset"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
	"reghd/internal/wire"
)

// ErrCorruptModel is the sentinel wrapped by Load/LoadFile when the stored
// bytes cannot be decoded into a structurally valid model — a truncated
// write, bit rot, or a file that was never a model checkpoint. Callers
// match it with errors.Is to distinguish a damaged checkpoint (fall back to
// an older one) from an I/O error such as a missing file.
var ErrCorruptModel = errors.New("core: corrupt model file")

// A checkpoint is one internal/wire frame (magic "RHck", version, CRC32-C
// trailer) whose body holds, all little-endian:
//
//	header   dim, scaler features (0: no scaler section), and the counts of
//	         models, clusters, binary clusters, binary models, model scales
//	         and assignment counts (u32 each)
//	config   Models, UpdateRule, ClusterMode, PredictMode, Epochs, Patience,
//	         Seed (u64 each); LearningRate, SoftmaxBeta, Tol, calibration
//	         a and b (f64 each); trained (bool); samples (u64)
//	scaler   ScaleTarget (bool), YMean, YStd, Mean[n], Std[n] (f64)
//	encoder  the encoder section (internal/encoding/serialize.go)
//	state    models, clusters (f64 slabs), binary clusters and binary
//	         models (u64 word slabs), model scales (f64), assignment
//	         counts (u64)
//
// The header sizes every section but the encoder's, so Load checks it
// against the bytes the file holds before it allocates anything, and each
// section decodes with one allocation straight into its slab.
var checkpointFormat = wire.Format{Magic: "RHck", Version: 1, Name: "reghd checkpoint"}

// checkpointConfigLen is the byte length of the config section, and
// checkpointMaxCount bounds every header count (the size check in
// readCheckpoint bounds their products).
const (
	checkpointConfigLen = 7*8 + 5*8 + 1 + 8
	checkpointMaxCount  = 1 << 24
)

// Save serializes the model (including its encoder and any binary shadows)
// to w as a checkpoint with no scaler section.
func (m *Model) Save(w io.Writer) error { return m.SaveCheckpoint(w, nil) }

// SaveCheckpoint serializes the model to dst, with a scaler section holding
// sc when sc is non-nil (a fitted pipeline). The bytes are a deterministic
// function of the model and sc.
func (m *Model) SaveCheckpoint(dst io.Writer, sc *dataset.Scaler) error {
	nScaler := 0
	if sc != nil {
		if nScaler = len(sc.Mean); nScaler == 0 || len(sc.Std) != nScaler {
			return fmt.Errorf("core: saving model: scaler has %d means and %d deviations", len(sc.Mean), len(sc.Std))
		}
	}
	w := wire.NewWriter(dst, checkpointFormat)
	for _, n := range []int{m.dim, nScaler, len(m.models), len(m.clusters), len(m.clustersBin), len(m.modelsBin), len(m.modelScale), len(m.assignN)} {
		w.U32(uint32(n))
	}
	c := m.cfg
	for _, v := range []int64{int64(c.Models), int64(c.UpdateRule), int64(c.ClusterMode), int64(c.PredictMode), int64(c.Epochs), int64(c.Patience), c.Seed} {
		w.U64(uint64(v))
	}
	for _, v := range []float64{c.LearningRate, c.SoftmaxBeta, c.Tol, m.calibA, m.calibB} {
		w.F64(v)
	}
	w.Bool(m.trained)
	w.U64(m.samples)
	if sc != nil {
		w.Bool(sc.ScaleTarget)
		w.F64(sc.YMean)
		w.F64(sc.YStd)
		w.Floats(sc.Mean)
		w.Floats(sc.Std)
	}
	if err := encoding.WriteEncoder(w, m.enc); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	for _, vs := range [][]hdc.Vector{m.models, m.clusters} {
		for _, v := range vs {
			w.Floats(v)
		}
	}
	for _, bs := range [][]*hdc.Binary{m.clustersBin, m.modelsBin} {
		for _, b := range bs {
			w.Words(b.Words)
		}
	}
	w.Floats(m.modelScale)
	w.Words(m.assignN)
	if err := w.Close(); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// SaveFile saves the model to a file path atomically (see WriteFileAtomic).
func (m *Model) SaveFile(path string) error { return WriteFileAtomic(path, m.Save) }

// WriteFileAtomic writes a file through write atomically: the bytes go to
// a temporary file in the same directory, which is synced and renamed over
// path. A crash, a full disk or a failing write therefore never leaves a
// torn file at path. Readers, such as a registry hot-loading checkpoints,
// see either the old complete file or the new one.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	tmp := f.Name()
	// Any failure from here on removes the temp file; the destination is
	// only ever touched by the final rename.
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// CreateTemp makes the file owner-only; a checkpoint is as readable
	// as a file os.Create would make under the usual umask.
	if err := f.Chmod(0o644); err != nil {
		return fail(fmt.Errorf("core: %w", err))
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("core: syncing %s: %w", path, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: publishing %s: %w", path, err)
	}
	return nil
}

// Load deserializes a model previously written by Save. The restored model
// predicts identically to the saved one; further training continues from
// the saved state (with a re-seeded shuffling stream). A checkpoint with a
// scaler section (a saved pipeline) is rejected; LoadCheckpoint reads both.
func Load(r io.Reader) (*Model, error) { return bareModel(LoadCheckpoint(r)) }

// LoadFile loads a model from a file path.
func LoadFile(path string) (*Model, error) { return bareModel(LoadCheckpointFile(path)) }

func bareModel(m *Model, sc *dataset.Scaler, err error) (*Model, error) {
	if err == nil && sc != nil {
		err = errors.New("core: checkpoint holds a pipeline (it has a scaler section); load it as a pipeline")
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint and returns
// the model and its scaler section, nil when the checkpoint has none. Any
// damage — truncation, a flipped bit, a foreign file, counts that disagree
// with the size of the input or with the configuration — returns an error
// wrapping ErrCorruptModel, having allocated no more than the checkpoint's
// size plus one read buffer.
func LoadCheckpoint(r io.Reader) (*Model, *dataset.Scaler, error) {
	m, sc, err := readCheckpoint(r)
	switch {
	case errors.Is(err, wire.ErrCorrupt):
		return nil, nil, fmt.Errorf("%w: %w", ErrCorruptModel, err)
	case err != nil:
		return nil, nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return m, sc, nil
}

// LoadCheckpointFile is LoadCheckpoint over a file path.
func LoadCheckpointFile(path string) (*Model, *dataset.Scaler, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// openCheckpoint opens the frame that fills the rest of r. Files and
// in-memory readers report their size and are streamed; any other reader
// is read whole first, so its size is known before a count is trusted.
func openCheckpoint(r io.Reader) (*wire.Reader, error) {
	switch src := r.(type) {
	case interface{ Len() int }:
		return wire.NewReader(r, int64(src.Len()), checkpointFormat)
	case *os.File:
		info, err := src.Stat()
		if err != nil {
			return nil, err
		}
		off, err := src.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		return wire.NewReader(src, info.Size()-off, checkpointFormat)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return wire.NewReader(bytes.NewReader(data), int64(len(data)), checkpointFormat)
}

// readCheckpoint decodes the checkpoint frame filling the rest of src,
// verifies its trailer, and builds a model from it once its state checks
// out.
func readCheckpoint(src io.Reader) (*Model, *dataset.Scaler, error) {
	r, err := openCheckpoint(src)
	if err != nil {
		return nil, nil, err
	}
	var n [8]int // dim, scaler features, then the six store counts
	for i := range n {
		n[i] = r.Count(checkpointMaxCount)
	}
	dim, nScaler, nModels, nClusters, nClustersBin, nModelsBin, nScales, nAssign := n[0], n[1], n[2], n[3], n[4], n[5], n[6], n[7]
	// Everything but the encoder section is sized now: check it against
	// the bytes left before allocating.
	words := int64(dim+63) / 64
	sized := int64(checkpointConfigLen) +
		8*int64(nModels+nClusters)*int64(dim) + 8*int64(nClustersBin+nModelsBin)*words + 8*int64(nScales+nAssign)
	if nScaler > 0 {
		sized += 1 + 16 + 16*int64(nScaler)
	}
	if r.Err() == nil && sized >= r.Left() {
		r.Fail("header promises at least %d body bytes, have %d", sized+1, r.Left())
	}
	var ints [7]int64
	for i := range ints {
		ints[i] = int64(r.U64())
	}
	var floats [5]float64
	for i := range floats {
		floats[i] = r.F64()
	}
	cfg := Config{
		Models: int(ints[0]), UpdateRule: UpdateRule(ints[1]), ClusterMode: ClusterMode(ints[2]),
		PredictMode: PredictMode(ints[3]), Epochs: int(ints[4]), Patience: int(ints[5]), Seed: ints[6],
		LearningRate: floats[0], SoftmaxBeta: floats[1], Tol: floats[2],
	}
	trained, samples := r.Bool(), r.U64()
	var sc *dataset.Scaler
	if nScaler > 0 {
		sc = &dataset.Scaler{ScaleTarget: r.Bool(), YMean: r.F64(), YStd: r.F64()}
		sc.Mean = r.Floats(nScaler)
		sc.Std = r.Floats(nScaler)
	}
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	enc, err := encoding.ReadEncoder(r)
	if err != nil {
		return nil, nil, err
	}
	p := params{cfg: cfg, enc: enc, dim: dim, calibA: floats[3], calibB: floats[4],
		models:      hdc.Rows(r.Floats(nModels*dim), nModels, dim),
		clusters:    hdc.Rows(r.Floats(nClusters*dim), nClusters, dim),
		clustersBin: readShadows(r, nClustersBin, dim),
		modelsBin:   readShadows(r, nModelsBin, dim),
		modelScale:  r.Floats(nScales),
	}
	assignN := r.Words(nAssign)
	if err := r.Close(); err != nil {
		return nil, nil, err
	}
	// The bytes are the ones the writer produced; what remains is whether
	// they describe a usable model.
	if err := p.cfg.Validate(); err != nil {
		return nil, nil, r.Fail("config: %v", err)
	}
	if err := p.checkShape(len(assignN)); err != nil {
		return nil, nil, r.Fail("%v", err)
	}
	return withState(p, trained, samples, assignN), sc, nil
}

// checkShape validates decoded stores against the configuration and the
// encoder's dimension: every store the configuration materializes holds
// exactly Cfg.Models vectors of dimension p.dim, and every store it does
// not is empty. A checkpoint that fails this would otherwise load and then
// panic (or silently mispredict) on first use.
func (p *params) checkShape(nAssign int) error {
	if d := p.enc.Dim(); d != p.dim {
		return fmt.Errorf("stores have dimension %d, encoder produces %d", p.dim, d)
	}
	k := p.cfg.Models
	want := func(materialized bool) int {
		if materialized {
			return k
		}
		return 0
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"model vectors", len(p.models), k},
		{"cluster vectors", len(p.clusters), want(k > 1)},
		{"binary cluster vectors", len(p.clustersBin), want(k > 1 && p.cfg.ClusterMode != ClusterInteger)},
		{"binary model vectors", len(p.modelsBin), want(p.cfg.PredictMode.UsesBinaryModel())},
		{"model scales", len(p.modelScale), want(p.cfg.PredictMode.UsesBinaryModel())},
		{"assignment counts", nAssign, want(k > 1)},
	} {
		if c.got != c.want {
			return fmt.Errorf("%d %s, config says %d", c.got, c.name, c.want)
		}
	}
	return nil
}
