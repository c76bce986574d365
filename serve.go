package reghd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reghd/internal/core"
	"reghd/internal/hdc"
)

// Snapshot is an immutable copy of a model's prediction state. Every method
// is safe from any number of goroutines, concurrently with further training
// of the source model.
type Snapshot = core.Snapshot

// AtomicOpCounter accumulates primitive-operation counts with atomic adds,
// safe for concurrent serving; install one on a Snapshot (SetCounter) or an
// Engine (EnableOpCounting).
type AtomicOpCounter = hdc.AtomicCounter

// Engine is a snapshot-publication serving engine: readers predict against
// an immutable Snapshot reached through one atomic pointer load — no locks,
// no shared scratch — while a single writer streams PartialFit updates into
// the live model and republishes at will. This is the concurrency pattern
// RegHD's single-pass streaming story needs in production: training and
// serving proceed simultaneously, and every reader observes a consistent
// frozen model rather than a half-updated one.
//
// Reader methods (Predict, PredictBatch, Snapshot, Metrics) may be called
// from any number of goroutines. Writer methods (PartialFit, Publish,
// Update, EnableOpCounting, EnableMetrics, SetPublishEvery) serialize on an
// internal mutex, so multiple producers may feed the engine too. Reads
// never block on writes.
//
// Observability is opt-in: EnableMetrics installs latency histograms,
// per-stage timing, and snapshot-staleness gauges (read them with Metrics);
// EnableOpCounting accounts primitive operations for the hardware cost
// model. Both keep the read path lock-free.
//
// The engine is hardened for hostile conditions (see docs/ROBUSTNESS.md):
// inputs are validated before touching model state (ErrInvalidInput),
// request panics are contained (PanicError), SetMaxInFlight bounds
// concurrent load (ErrOverloaded), and a failed PartialFit or
// republication drops the engine into degraded mode — readers keep serving
// the last known-good snapshot until an explicit Publish or Update
// succeeds.
type Engine struct {
	mu    sync.Mutex // serializes writers and snapshot publication
	model *core.Model
	// scaler, when non-nil, standardizes features/target on the way in and
	// de-standardizes predictions on the way out (engines built from a
	// fitted Pipeline).
	scaler *Scaler
	// features is the model's input arity, cached for lock-free request
	// validation.
	features int
	// snap holds the published {snapshot, sequence} pair; pairing them in
	// one pointer makes the publication sequence a torn-read canary —
	// readers can never observe a newer snapshot with an older sequence.
	snap atomic.Pointer[published]
	// seq numbers publications; guarded by mu.
	seq uint64

	// robust carries the always-on hardening counters and the admission
	// gate (see harden.go).
	robust robustStats
	// publishFail, when non-nil, is the test-only failpoint forcing
	// republications to fail (setPublishFailpoint); guarded by mu.
	publishFail func() error

	counter *AtomicOpCounter

	// stats, when non-nil, is the serving instrumentation installed by
	// EnableMetrics; readers reach it with one atomic load, so metrics-off
	// serving pays a single pointer check.
	stats atomic.Pointer[serveStats]

	publishEvery int
	sincePublish int

	// recentX/recentY ring-buffer the last calibWindow standardized
	// PartialFit samples for binary-model configurations: republication
	// passes them to RefreshShadows so the output calibration (a, b) tracks
	// the stream instead of freezing at its Fit-time value.
	recentX   [][]float64
	recentY   []float64
	recentPos int
	recentLen int
}

// published pairs a snapshot with its publication sequence number so both
// are swapped in one atomic store.
type published struct {
	snap *core.Snapshot
	seq  uint64
}

// calibWindow is how many recent streaming samples the engine retains for
// the calibration refresh of binary-model configurations.
const calibWindow = 256

// DefaultPublishEvery is the default number of PartialFit updates between
// automatic snapshot republications (and binary-shadow refreshes). Each
// publication deep-copies k·D model state, so per-sample publication would
// dominate small-D streaming workloads; a few dozen samples of staleness is
// the usual serving trade.
const DefaultPublishEvery = 64

// NewEngine wraps a trained model for concurrent serving and publishes its
// first snapshot. The engine takes over mutation of the model: do not call
// the model's own writer methods directly afterwards.
func NewEngine(m *Model) (*Engine, error) {
	if m == nil {
		return nil, errors.New("reghd: nil model")
	}
	if !m.Trained() {
		return nil, ErrNotTrained
	}
	e := &Engine{
		model:        m,
		features:     m.Encoder().Features(),
		publishEvery: DefaultPublishEvery,
	}
	e.publishLocked()
	return e, nil
}

// NewPipelineEngine wraps a fitted pipeline: the engine standardizes
// features before prediction, returns outputs in original target units,
// and PartialFit standardizes the incoming sample the same way.
func NewPipelineEngine(p *Pipeline) (*Engine, error) {
	if p == nil || p.scaler == nil {
		return nil, errors.New("reghd: pipeline has not been fitted")
	}
	e, err := NewEngine(p.model)
	if err != nil {
		return nil, err
	}
	e.scaler = p.scaler
	return e, nil
}

// publishLocked snapshots the live model and swaps the published pointer,
// updating the staleness gauges when metrics are enabled. Callers must hold
// e.mu (or be the constructor).
func (e *Engine) publishLocked() {
	s := e.model.Snapshot()
	s.SetCounter(e.counter)
	if st := e.stats.Load(); st != nil {
		s.SetStages(&st.stages)
		st.publishes.Add(1)
		st.updatesSincePublish.Store(0)
		st.lastPublishNS.Store(time.Now().UnixNano())
	}
	e.seq++
	e.snap.Store(&published{snap: s, seq: e.seq})
	e.sincePublish = 0
}

// Snapshot returns the currently published snapshot. The result stays valid
// (and frozen) indefinitely; callers holding it across republications simply
// serve the older model state.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load().snap }

// Features returns the model's input arity — the length every Predict row
// must have. Constant for the engine's lifetime.
func (e *Engine) Features() int { return e.features }

// refreshLocked re-quantizes the binary shadows and, when recent streaming
// samples are buffered, refits the binary-model output calibration on them.
// Callers must hold e.mu.
func (e *Engine) refreshLocked() error {
	if e.recentLen == 0 {
		return e.model.RefreshShadows(nil, nil)
	}
	return e.model.RefreshShadows(e.recentX[:e.recentLen], e.recentY[:e.recentLen])
}

// republishLocked runs the full republication path — failpoint, shadow
// refresh, publication. Callers must hold e.mu; on error nothing was
// published and the previously published snapshot keeps serving.
func (e *Engine) republishLocked() error {
	if e.publishFail != nil {
		if err := e.publishFail(); err != nil {
			return err
		}
	}
	if err := e.refreshLocked(); err != nil {
		return err
	}
	e.publishLocked()
	return nil
}

// Publish refreshes the binary shadows (and, for binary-model
// configurations, the output calibration against the recent streaming
// window) from the live integer state and publishes a fresh snapshot.
// Writers that want predictions to observe their updates immediately call
// this after mutating; PartialFit also triggers it automatically every
// SetPublishEvery updates. A successful Publish clears degraded mode — it
// is the recovery path after a mid-stream writer failure; a failed one
// enters (or stays in) degraded mode and leaves the last known-good
// snapshot serving.
func (e *Engine) Publish() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.republishLocked(); err != nil {
		e.robust.degraded.Store(true)
		return err
	}
	e.robust.degraded.Store(false)
	return nil
}

// SetPublishEvery sets how many PartialFit updates elapse between automatic
// republications; n <= 0 disables automatic publication (the writer then
// controls visibility explicitly with Publish).
func (e *Engine) SetPublishEvery(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publishEvery = n
}

// EnableOpCounting installs an atomic inference counter on all future
// snapshots, republishes, and returns the counter. Every prediction served
// from the engine afterwards is accounted; the counter may be read at any
// time while serving continues.
func (e *Engine) EnableOpCounting() *AtomicOpCounter {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.counter == nil {
		e.counter = &AtomicOpCounter{}
	}
	e.publishLocked()
	return e.counter
}

// PartialFit applies one streaming update to the live model (standardized
// through the pipeline scaler when the engine wraps one). Readers keep
// serving the published snapshot untouched; the update becomes visible at
// the next publication.
//
// The sample is validated before any model state is touched: NaN/Inf
// features or targets and wrong-arity rows are rejected with
// ErrInvalidInput instead of silently corrupting cluster state. If the
// update or its automatic republication fails mid-stream, the engine
// enters degraded mode: readers keep serving the last known-good snapshot
// and automatic republication is suspended until an explicit Publish or
// Update succeeds.
func (e *Engine) PartialFit(x []float64, y float64) error {
	if err := core.ValidateRow(x, e.features); err != nil {
		e.robust.invalid.Add(1)
		return err
	}
	if err := core.ValidateTarget(y); err != nil {
		e.robust.invalid.Add(1)
		return err
	}
	st := e.stats.Load()
	if st == nil {
		return e.partialFit(x, y)
	}
	t0 := time.Now()
	err := e.partialFit(x, y)
	st.partialFit.Observe(time.Since(t0), err)
	return err
}

// partialFit is the uninstrumented PartialFit body. The caller has already
// validated the sample.
func (e *Engine) partialFit(x []float64, y float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.scaler != nil {
		row := append([]float64(nil), x...)
		if err := e.scaler.TransformRow(row); err != nil {
			return err
		}
		x = row
		y = e.scaler.ScaleY(y)
	}
	// Guard the model update: a panic here means the live model may be
	// half-updated, so besides converting it to an error the engine drops
	// into degraded mode rather than republishing suspect state.
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = e.recovered("PartialFit", r)
			}
		}()
		err = e.model.PartialFit(x, y)
	}()
	if err != nil {
		e.robust.degraded.Store(true)
		return err
	}
	if st := e.stats.Load(); st != nil {
		st.updatesSincePublish.Add(1)
	}
	if e.model.Config().PredictMode.UsesBinaryModel() {
		e.remember(x, y)
	}
	if e.publishEvery > 0 && !e.robust.degraded.Load() {
		e.sincePublish++
		if e.sincePublish >= e.publishEvery {
			if err := e.republishLocked(); err != nil {
				e.robust.degraded.Store(true)
				return fmt.Errorf("reghd: republish failed, serving last good snapshot: %w", err)
			}
		}
	}
	return nil
}

// remember records a standardized streaming sample in the calibration ring
// buffer. Callers must hold e.mu.
func (e *Engine) remember(x []float64, y float64) {
	if e.recentX == nil {
		e.recentX = make([][]float64, calibWindow)
		e.recentY = make([]float64, calibWindow)
	}
	e.recentX[e.recentPos] = append([]float64(nil), x...)
	e.recentY[e.recentPos] = y
	e.recentPos = (e.recentPos + 1) % calibWindow
	if e.recentLen < calibWindow {
		e.recentLen++
	}
}

// Update runs fn against the live model under the writer lock and publishes
// a fresh snapshot afterwards — the escape hatch for writer operations the
// engine does not wrap (Fit on new data, Sparsify, fault injection). Unlike
// Publish, binary shadows are NOT refreshed: fn controls the exact state
// that becomes visible. A successful Update clears degraded mode: fn
// vouches for the state it publishes.
func (e *Engine) Update(fn func(*Model) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := fn(e.model); err != nil {
		return err
	}
	e.publishLocked()
	e.robust.degraded.Store(false)
	return nil
}

// Predict serves one prediction from the published snapshot: one atomic
// pointer load, pooled scratch, no locks. With a pipeline scaler the input
// is standardized and the output returned in original target units.
//
// The input is validated first (ErrInvalidInput), the request passes the
// admission gate (ErrOverloaded when SetMaxInFlight's bound is reached),
// and a panic anywhere in the serving path is contained to this request
// (PanicError). Rejected requests do not appear in the latency digests.
func (e *Engine) Predict(x []float64) (float64, error) {
	return e.PredictCtx(context.Background(), x)
}

// PredictCtx is Predict with a deadline: a context that is already
// cancelled or expired is rejected before any serving work starts. A
// single prediction is microseconds of work, so the context is checked at
// admission, not mid-kernel; batch callers get per-row cancellation
// through PredictBatchCtx.
func (e *Engine) PredictCtx(ctx context.Context, x []float64) (float64, error) {
	if err := core.ValidateRow(x, e.features); err != nil {
		e.robust.invalid.Add(1)
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !e.acquire() {
		return 0, ErrOverloaded
	}
	defer e.release()
	st := e.stats.Load()
	if st == nil {
		return e.predictSafe(nil, x)
	}
	t0 := time.Now()
	y, err := e.predictSafe(st, x)
	st.predict.Observe(time.Since(t0), err)
	return y, err
}

// predictSafe wraps the prediction body in the panic guard.
func (e *Engine) predictSafe(st *serveStats, x []float64) (y float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			y, err = 0, e.recovered("Predict", r)
		}
	}()
	return e.predict(st, x)
}

// predict is the prediction body; st, when non-nil, receives the
// standardization stage time (encode/similarity/readout are timed inside
// the snapshot).
func (e *Engine) predict(st *serveStats, x []float64) (float64, error) {
	snap := e.snap.Load().snap
	ys, err := standardized(e.scaler, st.stageTimes(), [][]float64{x}, func(rows [][]float64) ([]float64, error) {
		y, err := snap.Predict(rows[0])
		return []float64{y}, err
	})
	if err != nil {
		return 0, err
	}
	return ys[0], nil
}

// PredictBatch serves a batch from one consistent published snapshot,
// fanned out over GOMAXPROCS workers. Metrics time the call as a whole (one
// histogram entry per batch, with rows accounted separately). Every row is
// validated before any serving work starts; the whole batch counts as one
// request at the admission gate.
func (e *Engine) PredictBatch(xs [][]float64) ([]float64, error) {
	return e.PredictBatchCtx(context.Background(), xs)
}

// PredictBatchCtx is PredictBatch with a deadline: the context is checked
// before every row is dispatched, so cancelling mid-batch stops the
// remaining rows instead of running the batch to completion.
func (e *Engine) PredictBatchCtx(ctx context.Context, xs [][]float64) ([]float64, error) {
	if err := e.validateRows(xs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !e.acquire() {
		return nil, ErrOverloaded
	}
	defer e.release()
	st := e.stats.Load()
	if st == nil {
		return e.predictBatchSafe(ctx, nil, xs)
	}
	t0 := time.Now()
	ys, err := e.predictBatchSafe(ctx, st, xs)
	st.predictBatch.Observe(time.Since(t0), err)
	if err == nil {
		st.batchRows.Add(uint64(len(xs)))
	}
	return ys, err
}

// predictBatchSafe wraps the batch body in the panic guard.
func (e *Engine) predictBatchSafe(ctx context.Context, st *serveStats, xs [][]float64) (ys []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ys, err = nil, e.recovered("PredictBatch", r)
		}
	}()
	return e.predictBatch(ctx, st, xs)
}

// predictBatch is the batch-prediction body; st, when non-nil, receives the
// standardization stage time (one observation covering the whole batch).
func (e *Engine) predictBatch(ctx context.Context, st *serveStats, xs [][]float64) ([]float64, error) {
	snap := e.snap.Load().snap
	return standardized(e.scaler, st.stageTimes(), xs, func(rows [][]float64) ([]float64, error) {
		return snap.PredictBatchParallelCtx(ctx, rows, 0)
	})
}
