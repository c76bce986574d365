package hwmodel

import (
	"fmt"

	"reghd/internal/core"
	"reghd/internal/hdc"
)

// Counts is an operation-count vector indexed by hdc.Op.
type Counts = [hdc.NumOps]uint64

// add accumulates n occurrences of op into c.
func add(c *Counts, op hdc.Op, n uint64) { c[op] += n }

// addEncode charges one nonlinear encoding of an n-feature input into D
// dimensions, including the bipolar quantization (mirrors
// encoding.Nonlinear.EncodeInto with only the bipolar output).
func addEncode(c *Counts, n, d uint64) {
	add(c, hdc.OpFloatMul, n*d+d)
	add(c, hdc.OpFloatAdd, n*d+d)
	add(c, hdc.OpMemRead, n*d)
	add(c, hdc.OpExp, 2*d)
	add(c, hdc.OpMemWrite, d)
	add(c, hdc.OpCmp, d)
}

// addPack charges one bit-pack of a D-dimensional vector.
func addPack(c *Counts, d uint64) {
	add(c, hdc.OpCmp, d)
	add(c, hdc.OpMemRead, d)
	add(c, hdc.OpMemWrite, (d+63)/64)
}

// addDot charges one dense dot product of dimension D.
func addDot(c *Counts, d uint64) {
	add(c, hdc.OpFloatMul, d)
	add(c, hdc.OpFloatAdd, d)
	add(c, hdc.OpMemRead, 2*d)
}

// addCosine charges one cosine similarity of dimension D (dot + 2 norms).
func addCosine(c *Counts, d uint64) {
	addDot(c, d)
	for i := 0; i < 2; i++ {
		add(c, hdc.OpFloatMul, d)
		add(c, hdc.OpFloatAdd, d)
		add(c, hdc.OpFloatDiv, 1)
		add(c, hdc.OpMemRead, d)
	}
	add(c, hdc.OpFloatMul, 1)
	add(c, hdc.OpFloatDiv, 1)
}

// addHammingSim charges one Hamming similarity over D bit-packed
// dimensions.
func addHammingSim(c *Counts, d uint64) {
	w := (d + 63) / 64
	add(c, hdc.OpXor, w)
	add(c, hdc.OpPopcnt, w)
	add(c, hdc.OpIntAdd, w)
	add(c, hdc.OpMemRead, 2*w)
	add(c, hdc.OpFloatDiv, 1)
	add(c, hdc.OpFloatAdd, 1)
}

// addBinaryDenseDot charges one multiply-free dot of a packed query against
// a dense model (hdc.DotBinaryDense).
func addBinaryDenseDot(c *Counts, d uint64) {
	add(c, hdc.OpFloatAdd, d)
	add(c, hdc.OpMemRead, d+(d+63)/64)
}

// addBinaryBinaryDot charges one popcount dot of two packed vectors.
func addBinaryBinaryDot(c *Counts, d uint64) {
	w := (d + 63) / 64
	add(c, hdc.OpXor, w)
	add(c, hdc.OpPopcnt, w)
	add(c, hdc.OpIntAdd, w+1)
	add(c, hdc.OpMemRead, 2*w)
}

// addAXPY charges one scaled vector accumulation of dimension D.
func addAXPY(c *Counts, d uint64) {
	add(c, hdc.OpFloatMul, d)
	add(c, hdc.OpFloatAdd, d)
	add(c, hdc.OpMemRead, 2*d)
	add(c, hdc.OpMemWrite, d)
}

// addSoftmax charges one k-way softmax.
func addSoftmax(c *Counts, k uint64) {
	add(c, hdc.OpCmp, k)
	add(c, hdc.OpExp, k)
	add(c, hdc.OpFloatMul, 2*k+1)
	add(c, hdc.OpFloatAdd, 2*k)
	add(c, hdc.OpFloatDiv, 1)
}

// RegHDWorkload describes a RegHD training or inference run for cost
// estimation. The analytic counts mirror the instrumented kernels of
// internal/core, charging encoding once per sample per epoch (a streaming
// system re-encodes every pass).
type RegHDWorkload struct {
	// Dim is the hypervector dimensionality D.
	Dim int
	// Models is the number of cluster/model pairs k.
	Models int
	// Features is the input dimensionality n.
	Features int
	// TrainSamples is the training-set size.
	TrainSamples int
	// Epochs is the number of iterative passes.
	Epochs int
	// ClusterMode and PredictMode select the quantization configuration.
	ClusterMode core.ClusterMode
	PredictMode core.PredictMode
	// ModelSparsity is the fraction of zeroed model components
	// (SparseHD-style); hardware skips them, scaling the prediction dot
	// products by (1−sparsity). Zero means dense.
	ModelSparsity float64
}

// Validate rejects non-positive shape parameters.
func (w RegHDWorkload) Validate() error {
	if w.Dim <= 0 || w.Models <= 0 || w.Features <= 0 || w.TrainSamples <= 0 || w.Epochs <= 0 {
		return fmt.Errorf("hwmodel: RegHD workload has non-positive shape: %+v", w)
	}
	if w.ModelSparsity < 0 || w.ModelSparsity >= 1 {
		return fmt.Errorf("hwmodel: ModelSparsity must be in [0,1), got %v", w.ModelSparsity)
	}
	return nil
}

// perSampleSims charges the cluster similarity search for one sample.
func (w RegHDWorkload) perSampleSims(c *Counts) {
	if w.Models == 1 {
		return
	}
	d, k := uint64(w.Dim), uint64(w.Models)
	if w.ClusterMode == core.ClusterInteger {
		for i := uint64(0); i < k; i++ {
			addCosine(c, d)
		}
	} else {
		for i := uint64(0); i < k; i++ {
			addHammingSim(c, d)
		}
	}
	addSoftmax(c, k)
}

// perModelDot charges the prediction dot product against one model with the
// deployment kernel. Sparse models skip their zeroed components.
func (w RegHDWorkload) perModelDot(c *Counts) {
	d := uint64(float64(w.Dim) * (1 - w.ModelSparsity))
	switch w.PredictMode {
	case core.PredictFull:
		addDot(c, d)
	case core.PredictBinaryQuery:
		addBinaryDenseDot(c, d)
	case core.PredictBinaryModel:
		addBinaryDenseDot(c, d)
		add(c, hdc.OpFloatMul, 1)
	case core.PredictBinaryBoth:
		addBinaryBinaryDot(c, d)
		add(c, hdc.OpFloatMul, 1)
	}
}

// trainModelDot charges the training-time dot (always the integer model).
func (w RegHDWorkload) trainModelDot(c *Counts) {
	d := uint64(w.Dim)
	if w.PredictMode.UsesRawQuery() {
		addDot(c, d)
	} else {
		addBinaryDenseDot(c, d)
	}
}

// TrainCounts returns the operation counts of the full training run.
func (w RegHDWorkload) TrainCounts() (Counts, error) {
	if err := w.Validate(); err != nil {
		return Counts{}, err
	}
	var c Counts
	d, k := uint64(w.Dim), uint64(w.Models)
	n, f := uint64(w.TrainSamples), uint64(w.Features)
	perSample := Counts{}
	addEncode(&perSample, f, d)
	addPack(&perSample, d)
	w.perSampleSims(&perSample)
	for i := uint64(0); i < k; i++ {
		w.trainModelDot(&perSample)
	}
	if w.PredictMode.UsesRawQuery() {
		addDot(&perSample, d) // NLMS normalization
	}
	// Model updates: weighted rule updates all k models.
	for i := uint64(0); i < k; i++ {
		addAXPY(&perSample, d)
	}
	if w.Models > 1 && w.ClusterMode != core.ClusterNaiveBinary {
		add(&perSample, hdc.OpCmp, k-1) // argmax
		addAXPY(&perSample, d)          // cluster update
	}
	for op := range c {
		c[op] += perSample[op] * n * uint64(w.Epochs)
	}
	// End-of-epoch shadow refresh.
	var perEpoch Counts
	if w.ClusterMode == core.ClusterBinary {
		for i := uint64(0); i < k; i++ {
			addPack(&perEpoch, d)
		}
	}
	if w.PredictMode.UsesBinaryModel() {
		for i := uint64(0); i < k; i++ {
			addPack(&perEpoch, d)
			add(&perEpoch, hdc.OpFloatAdd, d) // L1 norm
			add(&perEpoch, hdc.OpCmp, d)
			add(&perEpoch, hdc.OpMemRead, d)
		}
		// Output calibration pass over ≤512 samples.
		calib := n
		if calib > 512 {
			calib = 512
		}
		var per Counts
		w.perSampleSims(&per)
		for i := uint64(0); i < k; i++ {
			w.perModelDot(&per)
		}
		for op := range perEpoch {
			perEpoch[op] += per[op] * calib
		}
	}
	for op := range c {
		c[op] += perEpoch[op] * uint64(w.Epochs)
	}
	return c, nil
}

// InferCounts returns the operation counts of predicting `queries` inputs.
func (w RegHDWorkload) InferCounts(queries int) (Counts, error) {
	if err := w.Validate(); err != nil {
		return Counts{}, err
	}
	if queries <= 0 {
		return Counts{}, fmt.Errorf("hwmodel: non-positive query count %d", queries)
	}
	var per Counts
	d, k := uint64(w.Dim), uint64(w.Models)
	addEncode(&per, uint64(w.Features), d)
	addPack(&per, d)
	w.perSampleSims(&per)
	for i := uint64(0); i < k; i++ {
		w.perModelDot(&per)
	}
	add(&per, hdc.OpFloatMul, k)
	add(&per, hdc.OpFloatAdd, k)
	var c Counts
	for op := range c {
		c[op] = per[op] * uint64(queries)
	}
	return c, nil
}

// DNNWorkload describes the MLP baseline for cost estimation.
type DNNWorkload struct {
	// Layers lists the layer widths including input and output,
	// e.g. {13, 64, 64, 1}.
	Layers []int
	// TrainSamples and Epochs shape the training run.
	TrainSamples int
	Epochs       int
	// BatchSize is the mini-batch size (weight updates per epoch =
	// TrainSamples/BatchSize).
	BatchSize int
}

// Validate rejects malformed workloads.
func (w DNNWorkload) Validate() error {
	if len(w.Layers) < 2 {
		return fmt.Errorf("hwmodel: DNN needs at least input and output layers, got %v", w.Layers)
	}
	for _, l := range w.Layers {
		if l <= 0 {
			return fmt.Errorf("hwmodel: non-positive layer width in %v", w.Layers)
		}
	}
	if w.TrainSamples <= 0 || w.Epochs <= 0 || w.BatchSize <= 0 {
		return fmt.Errorf("hwmodel: DNN workload has non-positive shape: %+v", w)
	}
	return nil
}

// macs returns the multiply-accumulate count of one forward pass.
func (w DNNWorkload) macs() uint64 {
	var m uint64
	for i := 0; i+1 < len(w.Layers); i++ {
		m += uint64(w.Layers[i]) * uint64(w.Layers[i+1])
	}
	return m
}

// params returns the trainable parameter count.
func (w DNNWorkload) params() uint64 {
	var p uint64
	for i := 0; i+1 < len(w.Layers); i++ {
		p += uint64(w.Layers[i])*uint64(w.Layers[i+1]) + uint64(w.Layers[i+1])
	}
	return p
}

// hiddenUnits returns the total hidden activations per forward pass.
func (w DNNWorkload) hiddenUnits() uint64 {
	var h uint64
	for i := 1; i+1 < len(w.Layers); i++ {
		h += uint64(w.Layers[i])
	}
	return h
}

// TrainCounts returns the operation counts of the full SGD training run:
// forward, backward (delta propagation + gradient accumulation ≈ 2×
// forward), and per-batch momentum updates.
func (w DNNWorkload) TrainCounts() (Counts, error) {
	if err := w.Validate(); err != nil {
		return Counts{}, err
	}
	var c Counts
	n := uint64(w.TrainSamples) * uint64(w.Epochs)
	m := w.macs()
	add(&c, hdc.OpFloatMul, 3*m*n)
	add(&c, hdc.OpFloatAdd, 3*m*n)
	add(&c, hdc.OpMemRead, 4*m*n)
	add(&c, hdc.OpMemWrite, m*n/4)
	add(&c, hdc.OpCmp, w.hiddenUnits()*2*n) // ReLU fwd + grad masks
	batches := uint64(w.Epochs) * (uint64(w.TrainSamples) + uint64(w.BatchSize) - 1) / uint64(w.BatchSize)
	p := w.params()
	add(&c, hdc.OpFloatMul, 3*p*batches) // momentum, decay, step
	add(&c, hdc.OpFloatAdd, 2*p*batches)
	add(&c, hdc.OpMemRead, 2*p*batches)
	add(&c, hdc.OpMemWrite, p*batches)
	return c, nil
}

// InferCounts returns the operation counts of `queries` forward passes.
func (w DNNWorkload) InferCounts(queries int) (Counts, error) {
	if err := w.Validate(); err != nil {
		return Counts{}, err
	}
	if queries <= 0 {
		return Counts{}, fmt.Errorf("hwmodel: non-positive query count %d", queries)
	}
	var c Counts
	n := uint64(queries)
	m := w.macs()
	add(&c, hdc.OpFloatMul, m*n)
	add(&c, hdc.OpFloatAdd, m*n)
	add(&c, hdc.OpMemRead, 2*m*n)
	add(&c, hdc.OpCmp, w.hiddenUnits()*n)
	return c, nil
}

// BaselineHDWorkload describes the classification-based HD baseline.
type BaselineHDWorkload struct {
	// Dim, Bins, Features shape the classifier.
	Dim, Bins, Features int
	// TrainSamples and Epochs shape the training run.
	TrainSamples, Epochs int
	// MistakeRate is the fraction of samples misclassified per retraining
	// pass (each mistake costs two model updates). Zero means the default
	// of 0.3.
	MistakeRate float64
}

// Validate rejects malformed workloads and fills the mistake-rate default.
func (w *BaselineHDWorkload) Validate() error {
	//lint:ignore floatcmp zero value selects the default mistake rate
	if w.MistakeRate == 0 {
		w.MistakeRate = 0.3
	}
	if w.Dim <= 0 || w.Bins < 2 || w.Features <= 0 || w.TrainSamples <= 0 || w.Epochs <= 0 {
		return fmt.Errorf("hwmodel: Baseline-HD workload has non-positive shape: %+v", *w)
	}
	if w.MistakeRate < 0 || w.MistakeRate > 1 {
		return fmt.Errorf("hwmodel: mistake rate %v out of [0,1]", w.MistakeRate)
	}
	return nil
}

// TrainCounts returns the operation counts of the full training run:
// encoding, the classify-against-every-bin search each pass, and the
// add/subtract updates on mistakes.
func (w BaselineHDWorkload) TrainCounts() (Counts, error) {
	if err := w.Validate(); err != nil {
		return Counts{}, err
	}
	var c Counts
	d := uint64(w.Dim)
	n := uint64(w.TrainSamples)
	// Encode once per sample per epoch (streaming) plus the bundling pass.
	var per Counts
	addEncode(&per, uint64(w.Features), d)
	for b := 0; b < w.Bins; b++ {
		addCosine(&per, d)
	}
	add(&per, hdc.OpCmp, uint64(w.Bins-1))
	updates := 2 * w.MistakeRate // two AXPYs per mistake on average
	add(&per, hdc.OpFloatMul, uint64(updates*float64(d)))
	add(&per, hdc.OpFloatAdd, uint64(updates*float64(d)))
	add(&per, hdc.OpMemRead, uint64(2*updates*float64(d)))
	add(&per, hdc.OpMemWrite, uint64(updates*float64(d)))
	for op := range c {
		c[op] = per[op] * n * uint64(w.Epochs)
	}
	return c, nil
}

// InferCounts returns the operation counts of `queries` classifications.
func (w BaselineHDWorkload) InferCounts(queries int) (Counts, error) {
	if err := w.Validate(); err != nil {
		return Counts{}, err
	}
	if queries <= 0 {
		return Counts{}, fmt.Errorf("hwmodel: non-positive query count %d", queries)
	}
	var per Counts
	d := uint64(w.Dim)
	addEncode(&per, uint64(w.Features), d)
	for b := 0; b < w.Bins; b++ {
		addCosine(&per, d)
	}
	add(&per, hdc.OpCmp, uint64(w.Bins-1))
	var c Counts
	for op := range c {
		c[op] = per[op] * uint64(queries)
	}
	return c, nil
}
