package reghd

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"reghd/internal/core"
)

// This file is the serving engine's hardening layer: typed request errors,
// input validation, panic containment, an admission-control gate, and the
// degraded-mode fallback. The design rule throughout is that a bad request
// — malformed input, an expired deadline, a request that trips a panic in a
// poisoned snapshot — costs exactly that one request an error, while
// sibling requests, the published snapshot, and the engine itself keep
// working. docs/ROBUSTNESS.md describes the full degradation semantics.

// ErrInvalidInput is the sentinel wrapped by every input-validation
// rejection (NaN/Inf features or targets, wrong feature count). Match with
// errors.Is to map it to a 400-class response.
var ErrInvalidInput = core.ErrInvalidInput

// ErrCorruptModel is the sentinel wrapped by LoadModel, LoadPipeline and
// their File forms when a checkpoint cannot be decoded into a structurally
// valid model. SaveFile writes checkpoints atomically (temp file +
// rename), so seeing this means the bytes were damaged after the fact, not
// torn by a crashed writer.
var ErrCorruptModel = core.ErrCorruptModel

// ErrOverloaded is returned by prediction when the engine's bounded
// in-flight limit (SetMaxInFlight) is reached: the request was shed without
// doing any serving work. Map it to a 429-class response and retry with
// backoff.
var ErrOverloaded = errors.New("reghd: engine overloaded, request shed")

// PanicError is returned when a request panicked inside the serving path —
// typically a poisoned model state reached through Update, or corrupted
// snapshot memory. The panic is contained to the failing request: sibling
// requests, the published snapshot, and the engine keep serving.
type PanicError struct {
	// Op names the engine method that recovered the panic.
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("reghd: panic recovered in %s: %v", p.Op, p.Value)
}

// robustStats are the engine's always-on hardening counters. They are plain
// atomics recorded regardless of EnableMetrics: shedding and panic
// containment must stay observable even on engines that never opt into the
// latency instrumentation.
type robustStats struct {
	shed    atomic.Uint64
	panics  atomic.Uint64
	invalid atomic.Uint64

	degraded atomic.Bool

	inFlight    atomic.Int64
	maxInFlight atomic.Int64 // <= 0 means unlimited
}

// RobustnessMetrics is the hardened serving surface's counter block,
// reported under EngineMetrics.Robustness (metric namespace
// reghd.engine.robustness, see docs/OBSERVABILITY.md). Unlike the latency
// metrics these are recorded always, not only after EnableMetrics.
type RobustnessMetrics struct {
	// RequestsShed counts predictions rejected by the admission gate
	// without doing serving work (ErrOverloaded). Shed requests do not
	// appear in the predict/predict_batch latency digests.
	RequestsShed uint64 `json:"requests_shed"`
	// PanicsRecovered counts panics contained to a single request and
	// converted into a PanicError.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// InvalidInputs counts requests rejected by input validation
	// (ErrInvalidInput) before touching any model state.
	InvalidInputs uint64 `json:"invalid_inputs"`
	// DegradedMode reports whether the engine is serving from its last
	// known-good snapshot after a writer-path failure; a successful
	// explicit Publish or Update clears it.
	DegradedMode bool `json:"degraded_mode"`
	// InFlight is the number of predictions currently inside the admission
	// gate.
	InFlight int64 `json:"in_flight"`
	// MaxInFlight is the configured admission limit (0 = unlimited).
	MaxInFlight int64 `json:"max_in_flight"`
	// PublishSeq is the monotonically increasing sequence number of the
	// published snapshot; readers observing it never see it decrease.
	PublishSeq uint64 `json:"publish_seq"`
}

// SetMaxInFlight bounds the number of predictions (single or batch calls,
// each counting once) allowed inside the engine simultaneously; excess
// requests fail fast with ErrOverloaded instead of queueing. n <= 0 removes
// the bound. Safe to call while serving.
func (e *Engine) SetMaxInFlight(n int) {
	if n < 0 {
		n = 0
	}
	e.robust.maxInFlight.Store(int64(n))
}

// Degraded reports whether the engine is in degraded mode: a PartialFit or
// republish failed mid-stream, so reads are served from the last known-good
// snapshot and automatic republication is suspended until an explicit
// Publish or Update succeeds.
func (e *Engine) Degraded() bool { return e.robust.degraded.Load() }

// PublishSeq returns the sequence number of the currently published
// snapshot. It increases by exactly one per publication, never decreases,
// and is the torn-read canary the chaos tests assert on.
func (e *Engine) PublishSeq() uint64 { return e.snap.Load().seq }

// acquire admits one request through the in-flight gate, reporting false
// (and recording the shed) when the bound is reached. Callers that receive
// true must release.
func (e *Engine) acquire() bool {
	max := e.robust.maxInFlight.Load()
	if n := e.robust.inFlight.Add(1); max > 0 && n > max {
		e.robust.inFlight.Add(-1)
		e.robust.shed.Add(1)
		return false
	}
	return true
}

// release exits the in-flight gate.
func (e *Engine) release() { e.robust.inFlight.Add(-1) }

// recovered converts a recovered panic value into a PanicError and counts
// it. Call only with a non-nil recover() result.
func (e *Engine) recovered(op string, r any) error {
	e.robust.panics.Add(1)
	return &PanicError{Op: op, Value: r, Stack: debug.Stack()}
}

// validateRows validates every row of a batch up front, so a malformed row
// is rejected — with its index — before any serving work starts.
func (e *Engine) validateRows(xs [][]float64) error {
	for i, x := range xs {
		if err := core.ValidateRow(x, e.features); err != nil {
			e.robust.invalid.Add(1)
			return fmt.Errorf("reghd: batch row %d: %w", i, err)
		}
	}
	return nil
}

// robustness snapshots the always-on hardening counters.
func (e *Engine) robustness() RobustnessMetrics {
	return RobustnessMetrics{
		RequestsShed:    e.robust.shed.Load(),
		PanicsRecovered: e.robust.panics.Load(),
		InvalidInputs:   e.robust.invalid.Load(),
		DegradedMode:    e.robust.degraded.Load(),
		InFlight:        e.robust.inFlight.Load(),
		MaxInFlight:     e.robust.maxInFlight.Load(),
		PublishSeq:      e.snap.Load().seq,
	}
}

// setPublishFailpoint installs a hook run at the start of every snapshot
// republication (automatic or explicit Publish); a non-nil error aborts the
// republication as if the shadow refresh had failed. Test-only: the chaos
// tests use it to force mid-stream publish failures and assert the engine
// degrades to its last known-good snapshot instead of crashing.
func (e *Engine) setPublishFailpoint(fn func() error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publishFail = fn
}
