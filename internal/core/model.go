package core

import (
	"fmt"
	"math/rand"
	"sync"

	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// params is the read-only state one prediction needs: the configuration,
// the encoder, and the learned hypervectors with their quantized shadows
// and output calibration. It is embedded by the mutable Model (where the
// training loop rewrites it in place) and copied wholesale into the
// immutable Snapshot, so every prediction kernel is written once, against
// params, and serves both.
type params struct {
	cfg Config
	enc encoding.Encoder
	dim int

	clusters   []hdc.Vector  // integer cluster hypervectors C_i
	models     []hdc.Vector  // integer regression hypervectors M_i
	modelsBin  []*hdc.Binary // binary shadows M_i^b (binary model modes)
	modelScale []float64     // per-model magnitude ‖M_i‖₁/D for binary models

	// clustersSet holds the binary cluster shadows C_i^b (binary cluster
	// modes) in one contiguous slab for the blocked k-way Hamming kernel,
	// and clustersBin[i] is row i of it as a view aliasing the slab, so the
	// in-place writers (refreshBinaryShadows, voteBits, copyStateFrom,
	// FaultView flips) update exactly what similarity reads. Both are nil
	// when the configuration has no binary clusters; clusterSlab builds
	// them.
	clustersSet *hdc.BinarySet
	clustersBin []*hdc.Binary

	// calibA, calibB linearly recalibrate the deployment output of
	// binary-model modes: binarizing M attenuates the readout by a factor
	// the per-model L1 scale cannot fully capture, so after each epoch a
	// least-squares fit of (a, b) on the training predictions restores the
	// output scale. Identity (1, 0) for integer-model modes.
	calibA, calibB float64
}

// Model is a RegHD regressor: k cluster hypervectors routing each encoded
// input to k regression hypervectors, with optional binary shadows for the
// quantized similarity and prediction kernels.
//
// A Model is not safe for concurrent mutation, and prediction must not
// overlap with mutation (Fit, PartialFit, RefreshShadows, Sparsify, fault
// injection) — take a Snapshot for that. Predict* methods are safe to call
// concurrently with each other when the optional counters are nil: each
// call draws private scratch from an internal pool.
type Model struct {
	params

	rng     *rand.Rand
	trained bool

	// samples counts every training update the model has absorbed (one per
	// Fit epoch sample and per PartialFit call). Sharded training weighs
	// each worker's contribution by the samples it absorbed since the last
	// sync point (see Delta/Merge in merge.go).
	samples uint64
	// assignN[i] counts the training samples whose cluster argmax picked
	// cluster i — the persistent form of the ClusterUsage histogram. Deltas
	// carry the per-shard counts and Merge fuses them additively, so the
	// merged model reports the same assignment census a sequential pass
	// over the union of shards would. Nil for single-model configurations.
	assignN []uint64

	// base, when non-nil, is the learned state recorded by MarkSync — the
	// reference that Delta diffs against. Training paths never read it.
	base *syncBase

	// sims and conf are the training-path scratch (cluster similarities
	// and softmax confidences): predictWith leaves them filled for the
	// subsequent update, which is why the training loop — single-writer by
	// contract — keeps shared buffers while Predict* uses pooled scratch.
	sims, conf []float64

	// scratch pools per-call encode workspaces so concurrent Predict*
	// calls never share encode or similarity/confidence buffers.
	scratch *scratchPool

	// TrainCounter, when non-nil, accumulates the primitive operations of
	// every training-phase kernel; InferCounter does the same for
	// prediction. They feed the hardware cost model cross-checks. Non-nil
	// counters are plain accumulators and revoke Predict*'s concurrency
	// safety; use Snapshot with an AtomicCounter to count concurrent
	// serving.
	TrainCounter *hdc.Counter
	InferCounter *hdc.Counter

	// Stages, when non-nil, accumulates per-stage wall time
	// (encode/similarity/readout) for every row predicted by Predict,
	// PredictBatch, and PredictBatchParallel. StageTimes records
	// atomically, so it does not affect Predict*'s concurrency safety — but
	// install it before serving begins, not concurrently with predictions.
	Stages *StageTimes
}

// scratch is one encode's private workspace: cluster similarities, softmax
// confidences, the D-length encode buffers (raw/bipolar/bit-packed
// representations that encode writes and every reader aliases), and a local
// op counter that concurrent paths merge into an AtomicCounter after the
// call.
type scratch struct {
	sims, conf []float64
	raw, s     hdc.Vector // raw is nil unless the mode reads the raw query
	packed     *hdc.Binary
	ctr        hdc.Counter
}

// scratchPool recycles scratch workspaces across prediction calls.
type scratchPool struct {
	pool sync.Pool
}

// newScratch sizes one workspace: models similarity slots, dim-length
// encode buffers (the raw buffer only for modes that read the raw query),
// and a bit-packed query.
func newScratch(models, dim int, needRaw bool) *scratch {
	s := &scratch{
		sims:   make([]float64, models),
		conf:   make([]float64, models),
		s:      hdc.NewVector(dim),
		packed: hdc.NewBinary(dim),
	}
	if needRaw {
		s.raw = hdc.NewVector(dim)
	}
	return s
}

// newScratchPool recycles newScratch workspaces of one shape.
func newScratchPool(models, dim int, needRaw bool) *scratchPool {
	return &scratchPool{pool: sync.Pool{New: func() any { return newScratch(models, dim, needRaw) }}}
}

func (p *scratchPool) get() *scratch  { return p.pool.Get().(*scratch) }
func (p *scratchPool) put(s *scratch) { p.pool.Put(s) }

// New constructs an untrained RegHD model over the given encoder.
func New(enc encoding.Encoder, cfg Config) (*Model, error) {
	if enc == nil {
		return nil, fmt.Errorf("core: nil encoder")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var assignN []uint64
	if cfg.Models > 1 {
		assignN = make([]uint64, cfg.Models)
	}
	m := withState(params{cfg: cfg, enc: enc, dim: enc.Dim(), calibA: 1}, false, 0, assignN)
	m.models = make([]hdc.Vector, cfg.Models)
	for i := range m.models {
		m.models[i] = hdc.NewVector(m.dim)
	}
	if cfg.PredictMode.UsesBinaryModel() {
		m.modelsBin = make([]*hdc.Binary, cfg.Models)
		m.modelScale = make([]float64, cfg.Models)
		for i := range m.modelsBin {
			m.modelsBin[i] = hdc.NewBinary(m.dim)
		}
	}
	if cfg.Models > 1 {
		// Cluster hypervectors are initialized to random bipolar values
		// (the paper's "random binary values"); the binary shadows are
		// their packed form.
		m.clusters = make([]hdc.Vector, cfg.Models)
		for i := range m.clusters {
			m.clusters[i] = hdc.RandomBipolar(m.rng, m.dim)
		}
		if cfg.ClusterMode != ClusterInteger {
			packed := make([]*hdc.Binary, cfg.Models)
			for i := range packed {
				packed[i] = hdc.Pack(nil, m.clusters[i])
			}
			m.clustersSet, m.clustersBin = clusterSlab(packed)
		}
	}
	return m, nil
}

// withState returns a Model over p, whose learned state is already in
// place, adding what every constructor adds: the seeded shuffling stream,
// the encode scratch pool, the binary cluster slab (a fresh copy of
// p.clustersBin) and the training scratch.
func withState(p params, trained bool, samples uint64, assignN []uint64) *Model {
	m := &Model{
		params:  p,
		trained: trained,
		samples: samples,
		assignN: assignN,
		rng:     rand.New(rand.NewSource(p.cfg.Seed)),
	}
	m.scratch = newScratchPool(p.cfg.Models, p.dim, p.cfg.PredictMode.UsesRawQuery())
	m.clustersSet, m.clustersBin = clusterSlab(p.clustersBin)
	if p.cfg.Models > 1 {
		m.sims = make([]float64, p.cfg.Models)
		m.conf = make([]float64, p.cfg.Models)
	}
	return m
}

// clusterSlab copies binary cluster shadows into a fresh contiguous slab
// and returns it with a new slice of row views aliasing it (nil, nil for
// no shadows). New, Clone, Snapshot, and Load install the pair; every later
// write goes through the row views, and since the copy is fresh, a model
// never shares rows with the one it was cloned or snapshotted from.
func clusterSlab(bs []*hdc.Binary) (*hdc.BinarySet, []*hdc.Binary) {
	if bs == nil {
		return nil, nil
	}
	set := hdc.NewBinarySet(bs)
	rows := make([]*hdc.Binary, set.Len())
	for i := range rows {
		rows[i] = set.Row(i)
	}
	return set, rows
}

// Config returns the validated configuration.
func (p *params) Config() Config { return p.cfg }

// Dim returns the hyperdimensional size D.
func (p *params) Dim() int { return p.dim }

// Models returns the number of cluster/regression model pairs k.
func (p *params) Models() int { return p.cfg.Models }

// Encoder returns the encoder the model was built with.
func (p *params) Encoder() encoding.Encoder { return p.enc }

// Trained reports whether Fit has completed at least one epoch.
func (m *Model) Trained() bool { return m.trained }

// SampleCount returns the number of training updates the model has
// absorbed (Fit epoch samples plus PartialFit calls, including counts
// fused in by Merge).
func (m *Model) SampleCount() uint64 { return m.samples }

// AssignCounts returns a copy of the per-cluster training assignment
// census: how many training samples each cluster attracted. Nil for
// single-model configurations.
func (m *Model) AssignCounts() []uint64 {
	if m.assignN == nil {
		return nil
	}
	return append([]uint64(nil), m.assignN...)
}

// encoded bundles the representations of one encoded sample that the active
// configuration needs: the bipolar vector S, its bit-packed form S^b, and —
// for raw-query prediction modes — the raw encoding H.
type encoded struct {
	raw    hdc.Vector  // nil unless the prediction mode reads the raw query
	s      hdc.Vector  // bipolar S (dense, ±1)
	packed *hdc.Binary // S bit-packed
}

// encode writes the representations of x the configuration needs into
// sc's buffers — the scratch layout is the selection: raw only for modes
// that read the raw query, S and S^b always — and returns them as an
// encoded view aliasing sc, valid until sc is reused or returned to its
// pool. It is the one encode path in core: every prediction, training,
// online-update and introspection entry point runs it.
func (p *params) encode(ctr *hdc.Counter, x []float64, sc *scratch) (encoded, error) {
	if err := p.enc.EncodeInto(ctr, x, sc.raw, sc.s, sc.packed); err != nil {
		return encoded{}, err
	}
	return encoded{raw: sc.raw, s: sc.s, packed: sc.packed}, nil
}

// clusterSimilaritiesInto fills sims with the similarity of the encoded
// sample to each cluster, using the configured similarity kernel. Both modes
// run the fused k-way kernels, which read the query once for all k clusters
// while staying bit-identical (and op-count-identical) to the per-cluster
// loops they replaced.
func (p *params) clusterSimilaritiesInto(ctr *hdc.Counter, e encoded, sims []float64) {
	switch p.cfg.ClusterMode {
	case ClusterInteger:
		hdc.CosineK(ctr, e.s, p.clusters, sims)
	default: // ClusterBinary, ClusterNaiveBinary
		p.clustersSet.HammingSimilarityK(ctr, e.packed, sims)
	}
}

// modelDot computes the raw per-model regression output ŷ_i = query·M_i / D
// with the deployment kernel selected by PredictMode.
func (p *params) modelDot(ctr *hdc.Counter, e encoded, i int) float64 {
	d := float64(p.dim)
	switch p.cfg.PredictMode {
	case PredictFull:
		return hdc.Dot(ctr, e.raw, p.models[i]) / d
	case PredictBinaryQuery:
		return hdc.DotBinaryDense(ctr, e.packed, p.models[i]) / d
	case PredictBinaryModel:
		return p.modelScale[i] * hdc.DotBinaryDense(ctr, p.modelsBin[i], e.raw) / d
	case PredictBinaryBoth:
		return p.modelScale[i] * float64(hdc.DotBinary(ctr, e.packed, p.modelsBin[i])) / d
	default:
		panic("core: invalid PredictMode")
	}
}

// trainModelDot computes ŷ_i against the *integer* model with the mode's
// query representation. The paper's Section 3.2 requires training to run on
// the integer model regardless of the deployment kernel: the binary shadow
// only refreshes per epoch, so using it for the training error would remove
// the feedback that keeps the LMS update convergent.
func (p *params) trainModelDot(ctr *hdc.Counter, e encoded, i int) float64 {
	d := float64(p.dim)
	if p.cfg.PredictMode.UsesRawQuery() {
		return hdc.Dot(ctr, e.raw, p.models[i]) / d
	}
	return hdc.DotBinaryDense(ctr, e.packed, p.models[i]) / d
}

// mix runs the Fig. 4 pipeline over an encoded sample: the Eq. 5 cluster
// similarity search, softmax normalization, and the Eq. 6
// confidence-weighted accumulation of the per-model dot kernel, leaving the
// similarities and confidences in sims/conf. The search is timed as
// StageSimilarity into tm (nil or idle: untimed).
func (p *params) mix(ctr *hdc.Counter, tm *stageTimer, e encoded, dot func(*hdc.Counter, encoded, int) float64, sims, conf []float64) float64 {
	if p.cfg.Models == 1 {
		return dot(ctr, e, 0)
	}
	p.clusterSimilaritiesInto(ctr, e, sims)
	hdc.Softmax(ctr, conf, sims, p.cfg.SoftmaxBeta)
	tm.lap(StageSimilarity)
	var y float64
	for i := range p.models {
		y += conf[i] * dot(ctr, e, i)
	}
	ctr.Add(hdc.OpFloatMul, uint64(p.cfg.Models))
	ctr.Add(hdc.OpFloatAdd, uint64(p.cfg.Models))
	return y
}

// predict is the one per-row inference path behind Model.Predict,
// Snapshot.Predict, and every batch path: encode x into sc's pooled
// buffers, mix with the deployment kernel, and apply the output calibration
// of binary-model modes. Ops are charged to ctr. A non-nil st receives the
// encode, similarity, and readout stage times; with a nil st the clock is
// never read.
func (p *params) predict(ctr *hdc.Counter, st *StageTimes, x []float64, sc *scratch) (float64, error) {
	tm := startStages(st)
	e, err := p.encode(ctr, x, sc)
	if err != nil {
		return 0, err
	}
	tm.lap(StageEncode)
	y := p.mix(ctr, &tm, e, p.modelDot, sc.sims, sc.conf)
	if p.cfg.PredictMode.UsesBinaryModel() {
		y = p.calibA*y + p.calibB
		ctr.Add(hdc.OpFloatMul, 1)
		ctr.Add(hdc.OpFloatAdd, 1)
	}
	tm.lap(StageReadout)
	return y, nil
}

// predictWith runs mix over the Model's shared training scratch, leaving
// m.sims/m.conf filled for the training update, so only single-writer
// training paths (Fit epochs, PartialFit, RefreshShadows, calibrate) may
// call it. dot is trainModelDot for the update's prediction and modelDot
// for the uncalibrated deployment output that calibration fits against.
func (m *Model) predictWith(ctr *hdc.Counter, e encoded, dot func(*hdc.Counter, encoded, int) float64) float64 {
	return m.mix(ctr, nil, e, dot, m.sims, m.conf)
}

// Predict returns the model's regression output for the feature vector x.
func (m *Model) Predict(x []float64) (float64, error) {
	if !m.trained {
		return 0, ErrNotTrained
	}
	sc := m.scratch.get()
	defer m.scratch.put(sc)
	return m.predict(m.InferCounter, m.Stages, x, sc)
}

// PredictBatch returns predictions for each row of xs, serially.
func (m *Model) PredictBatch(xs [][]float64) ([]float64, error) {
	return m.PredictBatchParallel(xs, 1)
}

// refreshBinaryShadows re-quantizes the binary copies from the integer
// state, the end-of-epoch step of the Section 3 framework: clusters are
// re-packed (ClusterBinary only — naive binarization never updates), and
// binary models pick up both new sign bits and a new magnitude scale.
func (m *Model) refreshBinaryShadows(ctr *hdc.Counter) {
	if m.cfg.ClusterMode == ClusterBinary {
		for i, c := range m.clusters {
			hdc.PackInto(ctr, m.clustersBin[i], c)
		}
	}
	if m.cfg.PredictMode.UsesBinaryModel() {
		for i, mv := range m.models {
			hdc.PackInto(ctr, m.modelsBin[i], mv)
			m.modelScale[i] = hdc.L1Norm(ctr, mv) / float64(m.dim)
		}
	}
}

// ModelVector returns a copy of the integer regression hypervector M_i.
func (p *params) ModelVector(i int) hdc.Vector { return p.models[i].Clone() }

// ClusterVector returns a copy of the integer cluster hypervector C_i.
// It returns nil for single-model configurations.
func (p *params) ClusterVector(i int) hdc.Vector {
	if p.clusters == nil {
		return nil
	}
	return p.clusters[i].Clone()
}
