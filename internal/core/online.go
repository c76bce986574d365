package core

import "reghd/internal/hdc"

// PartialFit performs one single-pass online update with the sample (x, y):
// encode, predict, and apply the Eq. 7/8 updates. It is the streaming
// entry point for IoT-style deployments where data arrives one sample at a
// time and no retraining passes are possible (the paper's "single-pass
// model" of §2.3).
//
// Binary shadows are NOT refreshed here (that costs a full re-quantization
// per model); call RefreshShadows periodically — e.g. every few hundred
// samples — when running a quantized configuration.
//
// PartialFit mutates the model, so it must not overlap with any other call
// on the same Model. To serve predictions concurrently with a PartialFit
// stream, publish Snapshots between updates (see Model.Snapshot and the
// reghd facade's Engine).
//
// The sample is validated before any state changes: a NaN/Inf target or a
// nil/wrong-length/non-finite feature vector returns an error wrapping
// ErrInvalidInput and leaves the model untouched. Without this gate one bad
// streaming sample would push non-finite values into the cluster and model
// hypervectors, permanently poisoning them.
func (m *Model) PartialFit(x []float64, y float64) error {
	if err := ValidateRow(x, m.enc.Features()); err != nil {
		return err
	}
	if err := ValidateTarget(y); err != nil {
		return err
	}
	sc := m.scratch.get()
	defer m.scratch.put(sc)
	e, err := m.encode(m.TrainCounter, x, sc)
	if err != nil {
		return err
	}
	yhat := m.predictWith(m.TrainCounter, e, m.trainModelDot)
	m.update(m.TrainCounter, e, y, yhat)
	m.trained = true
	return nil
}

// RefreshShadows re-quantizes the binary cluster and model shadows from the
// integer state and, for binary-model configurations, refreshes the output
// calibration from the provided recent samples (pass nil to keep the
// current calibration). Streaming callers should invoke it periodically.
func (m *Model) RefreshShadows(xs [][]float64, ys []float64) error {
	m.refreshBinaryShadows(m.TrainCounter)
	if !m.cfg.PredictMode.UsesBinaryModel() || len(xs) == 0 {
		return nil
	}
	if len(xs) != len(ys) {
		return hdc.ErrDimensionMismatch
	}
	sc := m.scratch.get()
	defer m.scratch.put(sc)
	var fit calibFit
	for i, x := range xs {
		e, err := m.encode(m.TrainCounter, x, sc)
		if err != nil {
			return err
		}
		fit.add(m.predictWith(m.TrainCounter, e, m.modelDot), ys[i])
	}
	m.calibA, m.calibB = fit.solve()
	return nil
}
