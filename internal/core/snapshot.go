package core

import (
	"context"

	"reghd/internal/hdc"
)

// Snapshot is an immutable, frozen copy of a model's prediction state:
// clusters, regression models, binary shadows, per-model scales, and the
// output calibration. Every Snapshot method is safe to call from any number
// of goroutines, concurrently with further mutation of the source Model —
// the snapshot deep-copies all learned state, so a streaming writer can
// keep running PartialFit/RefreshShadows/Fit on the live model while
// readers serve from published snapshots (the serving pattern the reghd
// facade's Engine wraps behind an atomic pointer).
//
// The encoder is shared, not copied: encoders are read-only after
// construction (see internal/encoding).
type Snapshot struct {
	params
	trained bool
	scratch *scratchPool

	// counter, when non-nil, aggregates the primitive-operation counts of
	// every prediction served from this snapshot. Kernels count into
	// per-call scratch counters, merged atomically after each call, so
	// op-counting no longer forces single-threaded serving.
	counter *hdc.AtomicCounter

	// stages, when non-nil, accumulates per-stage wall time
	// (encode/similarity/readout) for every prediction served from this
	// snapshot; recording is atomic, so it is safe under unlimited
	// concurrent serving.
	stages *StageTimes
}

// Snapshot returns an immutable copy of the model's current prediction
// state. It must not be called concurrently with model mutation (it reads
// the live state like any prediction); call it from the writer between
// updates, then hand the snapshot to any number of reader goroutines.
func (m *Model) Snapshot() *Snapshot {
	s := &Snapshot{
		params:  m.params,
		trained: m.trained,
		scratch: newScratchPool(m.cfg.Models, m.dim, m.cfg.PredictMode.UsesRawQuery()),
	}
	s.clusters = cloneVectors(m.clusters)
	s.models = cloneVectors(m.models)
	s.modelsBin = cloneBinaries(m.modelsBin)
	s.modelScale = append([]float64(nil), m.modelScale...)
	s.clustersSet, s.clustersBin = clusterSlab(m.clustersBin)
	return s
}

func cloneVectors(vs []hdc.Vector) []hdc.Vector {
	if vs == nil {
		return nil
	}
	out := make([]hdc.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

func cloneBinaries(bs []*hdc.Binary) []*hdc.Binary {
	if bs == nil {
		return nil
	}
	out := make([]*hdc.Binary, len(bs))
	for i, b := range bs {
		out[i] = b.Clone()
	}
	return out
}

// Trained reports whether the source model had completed training when the
// snapshot was taken.
func (s *Snapshot) Trained() bool { return s.trained }

// SetCounter installs an AtomicCounter that accumulates the primitive
// operations of every prediction served from this snapshot (nil disables
// counting). Install it before sharing the snapshot across goroutines; the
// counter itself may then be read concurrently with serving.
//
//lint:ignore snapshotmut pre-publication install hook: documented to run before the snapshot is shared with readers
func (s *Snapshot) SetCounter(ctr *hdc.AtomicCounter) { s.counter = ctr }

// Counter returns the installed AtomicCounter, or nil.
func (s *Snapshot) Counter() *hdc.AtomicCounter { return s.counter }

// SetStages installs a StageTimes accumulator that receives the per-stage
// wall time (encode / similarity / readout) of every prediction served from
// this snapshot (nil disables stage timing). Like SetCounter, install it
// before sharing the snapshot across goroutines; the accumulator itself may
// then be summarized concurrently with serving. Several snapshots may share
// one accumulator — the serving engine does exactly that across
// republications, so stage totals survive snapshot turnover.
//
//lint:ignore snapshotmut pre-publication install hook: documented to run before the snapshot is shared with readers
func (s *Snapshot) SetStages(st *StageTimes) { s.stages = st }

// Stages returns the installed StageTimes accumulator, or nil.
func (s *Snapshot) Stages() *StageTimes { return s.stages }

// Predict returns the snapshot's regression output for the feature vector
// x. Safe for unlimited concurrent use.
func (s *Snapshot) Predict(x []float64) (float64, error) {
	if !s.trained {
		return 0, ErrNotTrained
	}
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	var ctr *hdc.Counter
	if s.counter != nil {
		sc.ctr.Reset()
		ctr = &sc.ctr
	}
	y, err := s.predict(ctr, s.stages, x, sc)
	if err != nil {
		return 0, err
	}
	s.counter.AddCounter(ctr)
	return y, nil
}

// PredictBatch returns predictions for each row of xs, serially.
func (s *Snapshot) PredictBatch(xs [][]float64) ([]float64, error) {
	return s.PredictBatchParallelCtx(context.Background(), xs, 1)
}

// PredictBatchParallel predicts every row of xs using the given number of
// worker goroutines (0 means GOMAXPROCS). On error it returns the failure
// with the lowest row index.
func (s *Snapshot) PredictBatchParallel(xs [][]float64, workers int) ([]float64, error) {
	return s.PredictBatchParallelCtx(context.Background(), xs, workers)
}

// PredictBatchParallelCtx is PredictBatchParallel with per-row
// cancellation: workers check ctx before every row, so a deadline or
// cancellation abandons the remaining rows instead of serving a doomed
// batch to completion. The returned error wraps ctx.Err() when the batch
// was cut short.
func (s *Snapshot) PredictBatchParallelCtx(ctx context.Context, xs [][]float64, workers int) ([]float64, error) {
	if !s.trained {
		return nil, ErrNotTrained
	}
	var sink func(*hdc.Counter)
	if s.counter != nil {
		sink = s.counter.AddCounter
	}
	return s.predictBatch(ctx, xs, workers, s.scratch, s.stages, sink)
}
