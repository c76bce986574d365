package reghd

import (
	"sync/atomic"
	"time"

	"reghd/internal/core"
	"reghd/internal/obs"
)

// Stage identifies one phase of the prediction pipeline
// (standardize/encode/similarity/readout) for per-stage timing.
type Stage = core.Stage

// Re-exported prediction stages.
const (
	// StageStandardize is feature standardization (pipeline scaler).
	StageStandardize = core.StageStandardize
	// StageEncode is the Eq. 1 hyperdimensional encoding plus bit-packing.
	StageEncode = core.StageEncode
	// StageSimilarity is the cluster similarity search and softmax (Eq. 5).
	StageSimilarity = core.StageSimilarity
	// StageReadout is the per-model dots, blending, and calibration (Eq. 6).
	StageReadout = core.StageReadout
)

// StageTimes accumulates per-stage prediction wall time with atomic adds;
// install one with Pipeline.EnableStageTiming (Engine.EnableMetrics wires
// its own). Safe for concurrent recording and summarizing.
type StageTimes = core.StageTimes

// StageStat is the accumulated cost of one prediction stage.
type StageStat = core.StageStat

// StageSummary reports every prediction stage's accumulated cost.
type StageSummary = core.StageSummary

// OpSummary is the latency/throughput/error digest of one engine operation.
type OpSummary = obs.OpSummary

// SnapshotMetrics gauges how stale the published snapshot is relative to
// the live model the writer keeps training.
type SnapshotMetrics struct {
	// UpdatesSincePublish is the number of PartialFit updates absorbed by
	// the live model that the published snapshot does not yet reflect —
	// the publish lag in samples. Publish (explicit or automatic) resets
	// it to zero.
	UpdatesSincePublish int64 `json:"updates_since_publish"`
	// AgeSeconds is the wall time since the current snapshot was
	// published.
	AgeSeconds float64 `json:"age_s"`
	// Publishes counts snapshot publications since metrics were enabled
	// (EnableMetrics itself republishes once, so this starts at 1).
	Publishes uint64 `json:"publishes"`
}

// EngineMetrics is the plain-struct view of an engine's serving metrics,
// returned by Engine.Metrics and JSON-marshaled by the /metrics endpoint
// (see docs/OBSERVABILITY.md for the full metric reference). All latency
// fields are nanoseconds; quantiles carry the histogram's ±6.25% bucket
// error while means and maxima are exact.
type EngineMetrics struct {
	// Enabled reports whether EnableMetrics has been called; every other
	// field except Robustness is zero until then.
	Enabled bool `json:"enabled"`
	// UptimeSeconds is the observation window (time since EnableMetrics)
	// that the RatePerSec throughput fields are computed over.
	UptimeSeconds float64 `json:"uptime_s"`
	// Predict, PredictBatch, and PartialFit digest the latency, throughput,
	// and errors of the corresponding engine methods. PredictBatch times
	// whole calls, not rows.
	Predict      OpSummary `json:"predict"`
	PredictBatch OpSummary `json:"predict_batch"`
	// PredictBatchRows is the total number of rows served through
	// PredictBatch calls (Predict.Count + PredictBatchRows = predictions
	// served).
	PredictBatchRows uint64    `json:"predict_batch_rows"`
	PartialFit       OpSummary `json:"partial_fit"`
	// Stages breaks serving latency down by prediction stage so a
	// regression localizes: standardize (scaler), encode, similarity,
	// readout. Stage totals accumulate across snapshot republications.
	Stages StageSummary `json:"stages"`
	// EncodeRowsPerSec is the encode-stage throughput: rows encoded per
	// second of wall time actually spent encoding (stage calls over stage
	// total time, not over uptime). It gauges the encoding kernels'
	// capacity — the ceiling on serving throughput when encode dominates —
	// independent of how idle the engine is. Zero until the encode stage
	// has run.
	EncodeRowsPerSec float64 `json:"encode_rows_per_sec"`
	// Snapshot gauges publication staleness.
	Snapshot SnapshotMetrics `json:"snapshot"`
	// Robustness carries the hardening counters (shed/panic/invalid
	// counts, degraded mode, admission gate, publish sequence). Unlike the
	// latency metrics these are recorded always, not only after
	// EnableMetrics.
	Robustness RobustnessMetrics `json:"robustness"`
}

// serveStats is the engine's live instrumentation, reached through an
// atomic pointer so the serving hot path pays exactly one pointer load when
// metrics are off.
type serveStats struct {
	start time.Time

	predict      obs.OpStats
	predictBatch obs.OpStats
	batchRows    atomic.Uint64
	partialFit   obs.OpStats
	stages       core.StageTimes

	publishes           atomic.Uint64
	updatesSincePublish atomic.Int64
	lastPublishNS       atomic.Int64
}

// stageTimes returns the stage accumulator, or nil when metrics are off.
func (st *serveStats) stageTimes() *StageTimes {
	if st == nil {
		return nil
	}
	return &st.stages
}

// EnableMetrics turns on serving instrumentation: latency histograms and
// error counters around Predict/PredictBatch/PartialFit, per-stage
// prediction timing, and snapshot-staleness gauges. It republishes once so
// the published snapshot starts recording stage times. Idempotent; safe to
// call while serving. Read the results with Metrics.
//
// Overhead is two timestamps plus a few atomic adds per call — well under
// a microsecond against encode-dominated predictions (see
// BenchmarkEnginePredictMetricsOn/Off).
func (e *Engine) EnableMetrics() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stats.Load() != nil {
		return
	}
	st := &serveStats{start: time.Now()}
	st.lastPublishNS.Store(time.Now().UnixNano())
	e.stats.Store(st)
	e.publishLocked()
}

// MetricsEnabled reports whether EnableMetrics has been called.
func (e *Engine) MetricsEnabled() bool { return e.stats.Load() != nil }

// Metrics returns the current serving metrics as a plain struct. Cheap
// enough to poll: it snapshots the histograms without blocking serving (and
// without taking the writer lock). Before EnableMetrics it returns the zero
// struct with Enabled == false.
func (e *Engine) Metrics() EngineMetrics {
	st := e.stats.Load()
	if st == nil {
		return EngineMetrics{Robustness: e.robustness()}
	}
	elapsed := time.Since(st.start)
	encode := st.stages.Stat(core.StageEncode)
	var encodeRate float64
	if encode.TotalNS > 0 {
		encodeRate = float64(encode.Calls) / (float64(encode.TotalNS) * 1e-9)
	}
	return EngineMetrics{
		Enabled:          true,
		UptimeSeconds:    elapsed.Seconds(),
		Predict:          st.predict.Summary(elapsed),
		PredictBatch:     st.predictBatch.Summary(elapsed),
		PredictBatchRows: st.batchRows.Load(),
		PartialFit:       st.partialFit.Summary(elapsed),
		Stages:           st.stages.Summary(),
		EncodeRowsPerSec: encodeRate,
		Snapshot: SnapshotMetrics{
			UpdatesSincePublish: st.updatesSincePublish.Load(),
			AgeSeconds:          time.Since(time.Unix(0, st.lastPublishNS.Load())).Seconds(),
			Publishes:           st.publishes.Load(),
		},
		Robustness: e.robustness(),
	}
}
