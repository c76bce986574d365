package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reghd"
	"reghd/internal/synth"
)

// streamSchedule is one stream run's pre-generated inputs: the writer's
// updates (rows of the stream pool) and the reader's arrivals and rows
// (rows of the held-out set).
type streamSchedule struct {
	updates []int
	readDue []time.Duration
	reads   []int
}

// newStreamSchedule draws the reader's schedule from seed. The writer's
// updates come from a fixed stream, so the streamed model, and with it
// mse, is the same for every seed.
func newStreamSchedule(seed int64, s sizes, seconds float64, pool, held int) *streamSchedule {
	updates := rand.New(rand.NewSource(2001))
	sc := &streamSchedule{updates: make([]int, int(s.streamUpdatesPerSec*seconds))}
	for i := range sc.updates {
		sc.updates[i] = updates.Intn(pool)
	}
	rng := rand.New(rand.NewSource(seed))
	// The reader runs until the writer finishes; arrivals cover several
	// times the expected writer time.
	sc.readDue = poissonArrivals(rng, s.streamReadRate, time.Duration(4*seconds*float64(time.Second)))
	sc.reads = make([]int, len(sc.readDue))
	for i := range sc.reads {
		sc.reads[i] = rng.Intn(held)
	}
	return sc
}

// streamData is the stream workload's dataset: rows to fit the initial
// model on, held-out rows for the reader and the final mse, and the pool
// the writer's updates come from.
type streamData struct {
	fit, held, pool *reghd.Dataset
}

func newStreamData(s sizes) (*streamData, error) {
	data, err := synth.Generate(tenantSpec(s, s.rows+s.heldOut+s.streamPool), 2000)
	if err != nil {
		return nil, fmt.Errorf("stream data: %w", err)
	}
	cut := func(lo, hi int) *reghd.Dataset {
		return &reghd.Dataset{Name: "stream", X: data.X[lo:hi], Y: data.Y[lo:hi]}
	}
	return &streamData{
		fit:  cut(0, s.rows),
		held: cut(s.rows, s.rows+s.heldOut),
		pool: cut(s.rows+s.heldOut, data.Len()),
	}, nil
}

// newStreamEngine fits the initial pipeline with the paper's quantized
// clustering and wraps it in an engine publishing every 64 updates.
func newStreamEngine(s sizes, fit *reghd.Dataset) (*reghd.Pipeline, *reghd.Engine, error) {
	enc, err := reghd.NewEncoder(fit.Features(), s.dim, 7)
	if err != nil {
		return nil, nil, err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = s.models
	cfg.Epochs = s.tenantEpochs
	cfg.ClusterMode = reghd.ClusterBinary
	model, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return nil, nil, err
	}
	pipe := reghd.NewPipeline(model)
	if _, err := pipe.Fit(fit); err != nil {
		return nil, nil, err
	}
	eng, err := reghd.NewPipelineEngine(pipe)
	if err != nil {
		return nil, nil, err
	}
	eng.SetPublishEvery(reghd.DefaultPublishEvery)
	return pipe, eng, nil
}

// streamRun is what one pass of the stream measured: the writer's
// PartialFit calls and the reader's predictions.
type streamRun struct {
	reader, writer *timing
}

// runStreamPass applies every update from one writer goroutine while the
// reader predicts in an open loop until the writer is done.
func runStreamPass(ctx context.Context, eng *reghd.Engine, d *streamData, sc *streamSchedule) (*streamRun, error) {
	readerCtx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	run := &streamRun{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stopReader()
		run.writer = closedLoop(ctx, len(sc.updates), time.Hour, 1, func(_, i int) bool {
			j := sc.updates[i]
			return eng.PartialFit(d.pool.X[j], d.pool.Y[j]) == nil
		})
	}()
	run.reader = openLoop(readerCtx, sc.readDue, 1, func(_, i int) bool {
		y, err := eng.PredictCtx(ctx, d.held.X[sc.reads[i]])
		return err == nil && !math.IsNaN(y) && !math.IsInf(y, 0)
	})
	wg.Wait()
	return run, ctx.Err()
}

// ops and failed count both sides' operations.
func (r *streamRun) ops() int64    { return r.writer.ran() + r.reader.ran() }
func (r *streamRun) failed() int64 { return r.writer.failed() + r.reader.failed() }

// streamMSE publishes the streamed model and returns its mse on the
// held-out rows in standardized target units.
func streamMSE(eng *reghd.Engine, sc *reghd.Scaler, held *reghd.Dataset) (float64, error) {
	if err := eng.Publish(); err != nil {
		return 0, err
	}
	pred, err := eng.PredictBatch(held.X)
	if err != nil {
		return 0, err
	}
	var se float64
	for i, y := range pred {
		d := sc.ScaleY(y) - sc.ScaleY(held.Y[i])
		se += d * d
	}
	return se / float64(len(pred)), nil
}

// runStream is the stream workload: one engine absorbing PartialFit
// updates from a writer while a reader predicts from it.
func runStream(ctx context.Context, e *env) (*result, error) {
	res := newResult("stream")
	s := e.size
	d, err := newStreamData(s)
	if err != nil {
		return nil, err
	}

	// Set-up is the initial fit and the engine construction.
	var (
		pipe *reghd.Pipeline
		eng  *reghd.Engine
	)
	err = repeatSetup(res, s, func() error {
		var err error
		pipe, eng, err = newStreamEngine(s, d.fit)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	sc := newStreamSchedule(e.seed, s, e.seconds, d.pool.Len(), d.held.Len())
	run, err := runStreamPass(ctx, eng, d, sc)
	if err != nil {
		return nil, err
	}
	mse, err := streamMSE(eng, pipe.Scaler(), d.held)
	if err != nil {
		return nil, err
	}
	reportStream(res, run, mse)
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	if !e.trace {
		return res, nil
	}

	// Traced run: a fresh engine with engine metrics on, the same stream.
	pipe, eng, err = newStreamEngine(s, d.fit)
	if err != nil {
		return nil, err
	}
	eng.EnableMetrics()
	mem := startMem()
	traced, err := runStreamPass(ctx, eng, d, sc)
	if err != nil {
		return nil, err
	}
	mem.report(res, traced.ops())
	var st stageTotals
	st.add(eng)
	if _, err := streamMSE(eng, pipe.Scaler(), d.held); err != nil {
		return nil, err
	}
	res.count(traced.ops(), traced.failed())
	reportLateness(res, traced.reader)
	res.set("trace.overhead_pct", overheadPct(run.writer.throughput(), traced.writer.throughput()))

	w := &tracer{pass: "stream"}
	var plain, republish []float64
	for i, sent := range traced.writer.sent {
		if sent < 0 {
			continue
		}
		name := "engine.partialfit"
		ns := float64(traced.writer.done[i] - sent)
		// The engine republishes on every publish-every'th update after
		// EnableMetrics' own publication.
		if (i+1)%reghd.DefaultPublishEvery == 0 {
			name = "engine.republish"
			republish = append(republish, ns)
		} else {
			plain = append(plain, ns)
		}
		w.add(name, int64(i), -1, sent, traced.writer.done[i])
	}
	spans := merge(timingSpans("stream", "engine.predict", traced.reader), w)
	st.report(res, durations(spans, "engine.predict"))
	res.set("engine.partialfit_mean_us", mean(plain)/1e3)
	res.set("engine.republish_mean_ms", mean(republish)/1e6)
	if err := timeCheckpoint(res, pipe, filepath.Join(e.work, "stream.gob"), 3); err != nil {
		return nil, err
	}
	reportNoServing(res)
	reportNoTraining(res)
	return res, writeSpans(e.spans, "stream", e.seed, spans)
}

// reportStream records the untraced pass's end-to-end metrics and checks
// its outputs.
func reportStream(res *result, run *streamRun, mse float64) {
	res.count(run.ops(), run.failed())
	reportLatency(res, run.reader)
	reportLateness(res, run.reader)
	res.set("throughput_per_s", run.writer.throughput())
	res.set("mse", mse)
	res.extra("stream.updates", float64(run.writer.ran()), "count")
	if !(mse < 1) {
		res.fail("mse %v is not below 1 (no better than predicting the mean)", mse)
	}
}
