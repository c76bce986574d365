package core

import (
	"sync/atomic"
	"time"
)

// Stage identifies one phase of the prediction pipeline for per-stage wall
// time accounting. The stages mirror the dataflow of the paper's Fig. 4:
// feature standardization (facade layer), the Eq. 1 nonlinear encoding, the
// Eq. 5 cluster similarity search plus softmax, and the Eq. 6
// confidence-weighted readout (including the output calibration of
// binary-model modes).
type Stage int

const (
	// StageStandardize is feature/target standardization. core never
	// records it — the reghd facade does, around its Scaler — but the slot
	// lives here so one accumulator covers the whole serving path.
	StageStandardize Stage = iota
	// StageEncode is the hyperdimensional encoding of the query (Eq. 1
	// projection plus bit-packing).
	StageEncode
	// StageSimilarity is the cluster similarity search and softmax
	// normalization (Eqs. 5); zero calls for single-model configurations.
	StageSimilarity
	// StageReadout is the per-model dot products, confidence-weighted
	// accumulation, and output calibration (Eq. 6).
	StageReadout

	// NumStages is the number of prediction stages.
	NumStages
)

var stageNames = [NumStages]string{"standardize", "encode", "similarity", "readout"}

// String returns the lower-case stage name used in metrics and reports.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "stage(?)"
	}
	return stageNames[s]
}

// StageTimes accumulates per-stage wall time and call counts with atomic
// adds, so any number of concurrent predictions may record into one
// accumulator while readers summarize it. The zero value is ready to use; a
// nil *StageTimes is valid everywhere and records nothing, mirroring the
// nil-Counter convention of the instrumented kernels.
//
// The prediction path times its stages back to back with one clock read
// per stage boundary (see stageTimer), and reads the clock only when a
// StageTimes is installed (Model.Stages, Snapshot.SetStages,
// Engine.EnableMetrics).
type StageTimes struct {
	ns    [NumStages]atomic.Int64
	calls [NumStages]atomic.Int64
}

// Observe records one execution of stage s that took d. Observe on a nil
// accumulator is a no-op.
func (t *StageTimes) Observe(s Stage, d time.Duration) {
	if t == nil || s < 0 || s >= NumStages {
		return
	}
	t.ns[s].Add(int64(d))
	t.calls[s].Add(1)
}

// StageStat is the accumulated cost of one prediction stage.
type StageStat struct {
	// Calls is how many times the stage executed.
	Calls int64 `json:"calls"`
	// TotalNS is the total wall time spent in the stage, in nanoseconds.
	TotalNS int64 `json:"total_ns"`
	// MeanNS is TotalNS/Calls (0 when the stage never ran).
	MeanNS int64 `json:"mean_ns"`
}

// StageSummary reports every stage's accumulated cost, JSON-ready for the
// /metrics endpoint.
type StageSummary struct {
	Standardize StageStat `json:"standardize"`
	Encode      StageStat `json:"encode"`
	Similarity  StageStat `json:"similarity"`
	Readout     StageStat `json:"readout"`
}

// Stat returns the accumulated cost of one stage. Counts and times are
// loaded independently, so a summary taken under concurrent recording is
// consistent per field, not across fields.
func (t *StageTimes) Stat(s Stage) StageStat {
	if t == nil || s < 0 || s >= NumStages {
		return StageStat{}
	}
	st := StageStat{Calls: t.calls[s].Load(), TotalNS: t.ns[s].Load()}
	if st.Calls > 0 {
		st.MeanNS = st.TotalNS / st.Calls
	}
	return st
}

// Summary returns every stage's accumulated cost.
func (t *StageTimes) Summary() StageSummary {
	return StageSummary{
		Standardize: t.Stat(StageStandardize),
		Encode:      t.Stat(StageEncode),
		Similarity:  t.Stat(StageSimilarity),
		Readout:     t.Stat(StageReadout),
	}
}

// Reset zeroes all stages. Concurrent Observes racing a Reset land either
// before or after it per field.
func (t *StageTimes) Reset() {
	if t == nil {
		return
	}
	for i := range t.ns {
		t.ns[i].Store(0)
		t.calls[i].Store(0)
	}
}

// stageTimer times the consecutive stages of one prediction into st. Each
// lap closes the stage that began at the previous boundary. The zero value
// (nil st) records nothing and never reads the clock, so an untimed
// prediction pays one nil check per stage boundary.
type stageTimer struct {
	st *StageTimes
	t  time.Time
}

// startStages opens the first stage boundary of a prediction timed into st.
func startStages(st *StageTimes) stageTimer {
	if st == nil {
		return stageTimer{}
	}
	return stageTimer{st: st, t: stageClock()}
}

// lap records the time since the previous boundary as stage s. A nil timer
// (the training paths) is idle like the zero value.
func (tm *stageTimer) lap(s Stage) {
	if tm == nil || tm.st == nil {
		return
	}
	now := stageClock()
	tm.st.Observe(s, now.Sub(tm.t))
	tm.t = now
}

// stageClock is the prediction path's only wall-clock read.
func stageClock() time.Time {
	//lint:nondeterm wall-clock telemetry: stage timing feeds StageTimes metrics only
	return time.Now()
}
