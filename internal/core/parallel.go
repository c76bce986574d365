package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"reghd/internal/hdc"
)

// rowErr pairs a row index with its error so parallel batch paths report
// the first failure in row order regardless of worker scheduling.
type rowErr struct {
	row int
	err error
}

// firstRowErr returns the recorded error with the lowest row index, or nil.
func firstRowErr(errs []rowErr) error {
	var first error
	best := -1
	for _, re := range errs {
		if re.err != nil && (best < 0 || re.row < best) {
			best = re.row
			first = re.err
		}
	}
	return first
}

// clampWorkers resolves a worker count request against n items: 0 means
// GOMAXPROCS, and the count never exceeds the number of items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// forEachRowParallelCtx is the one batch worker loop: it splits [0, n)
// into contiguous per-worker chunks and calls fn(w, i) for every index, w
// being the worker running row i, so callers can keep per-worker counters
// and scratch indexed by w without locks. Each worker stops its chunk at its
// first error, and the error of the lowest failing row is returned. With one
// worker (or one item) it runs inline as worker 0. Every worker checks ctx
// before each row, so a deadline or cancellation stops the batch at row
// granularity; the reported error for a cancelled row wraps ctx.Err(). The
// background context's Err is a constant nil, so the uncancellable path pays
// only a dynamic method call per row — noise against a D-dimensional
// prediction.
func forEachRowParallelCtx(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: row %d cancelled: %w", i, err)
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]rowErr, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[w] = rowErr{row: i, err: fmt.Errorf("core: row %d cancelled: %w", i, err)}
					return
				}
				if err := fn(w, i); err != nil {
					errs[w] = rowErr{row: i, err: err}
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return firstRowErr(errs)
}

// predictBatch is the one batch prediction path: rows fan out over
// forEachRowParallelCtx and each row runs predict on pooled scratch. When
// sink is non-nil every worker counts into its own counter, and each
// worker's counts are handed to sink once the batch ends — on the failure
// path too, so instrumentation matches the work actually performed. On
// error the failure with the lowest row index is returned.
func (p *params) predictBatch(ctx context.Context, xs [][]float64, workers int, pool *scratchPool, st *StageTimes, sink func(*hdc.Counter)) ([]float64, error) {
	ctrs := make([]hdc.Counter, clampWorkers(workers, len(xs)))
	out := make([]float64, len(xs))
	err := forEachRowParallelCtx(ctx, len(xs), len(ctrs), func(w, i int) error {
		sc := pool.get()
		defer pool.put(sc)
		var ctr *hdc.Counter
		if sink != nil {
			ctr = &ctrs[w]
		}
		y, err := p.predict(ctr, st, xs[i], sc)
		if err != nil {
			return fmt.Errorf("core: predicting row %d: %w", i, err)
		}
		out[i] = y
		return nil
	})
	if sink != nil {
		for w := range ctrs {
			sink(&ctrs[w])
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchParallel predicts every row of xs using the given number of
// worker goroutines (0 means GOMAXPROCS). Prediction only reads model
// state, so workers share the model and carry private pooled scratch —
// the data parallelism the paper highlights as inherent to HD computing.
// Operation counting is aggregated across workers into InferCounter, on
// both the success and the failure path, so instrumentation stays
// consistent with the work actually performed; on error the failure with
// the lowest row index is returned.
func (m *Model) PredictBatchParallel(xs [][]float64, workers int) ([]float64, error) {
	if !m.trained {
		return nil, ErrNotTrained
	}
	var sink func(*hdc.Counter)
	if m.InferCounter != nil {
		sink = m.InferCounter.AddCounter
	}
	return m.predictBatch(context.Background(), xs, workers, m.scratch, m.Stages, sink)
}
