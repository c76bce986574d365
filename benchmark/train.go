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
)

// trainFit is one FitParallel run.
type trainFit struct {
	pipe *reghd.Pipeline
	res  *reghd.ParallelTrainResult
	wall time.Duration
}

// throughput is training rows × epochs per second of FitParallel.
func (f *trainFit) throughput() float64 {
	return float64(f.res.Rows) / f.wall.Seconds()
}

// fitTrain trains a fresh model on the training split with FitParallel on
// two workers; the pipeline standardizes the split first.
func fitTrain(s sizes, train *reghd.Dataset) (*trainFit, error) {
	enc, err := reghd.NewEncoder(train.Features(), s.dim, 1)
	if err != nil {
		return nil, err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = s.models
	cfg.Epochs = s.trainEpochs
	cfg.Patience = 1000 // the work is fixed: no early stop
	model, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return nil, err
	}
	f := &trainFit{pipe: reghd.NewPipeline(model)}
	t0 := time.Now()
	if f.res, err = f.pipe.FitParallel(train, 2); err != nil {
		return nil, err
	}
	f.wall = time.Since(t0)
	return f, nil
}

// trainScore is the trained model scoring the test split.
type trainScore struct {
	engine *reghd.Engine
	timing *timing
	mse    float64
}

// scoreTrain predicts every test row once, in the seeded order, through an
// engine over the trained pipeline, in an open loop.
func scoreTrain(ctx context.Context, pipe *reghd.Pipeline, test *reghd.Dataset, order []int, due []time.Duration, metrics bool) (*trainScore, error) {
	eng, err := reghd.NewPipelineEngine(pipe)
	if err != nil {
		return nil, err
	}
	if metrics {
		eng.EnableMetrics()
	}
	sc := pipe.Scaler()
	se := make([]float64, len(order))
	t := openLoop(ctx, due, 1, func(_, i int) bool {
		row := order[i]
		y, err := eng.PredictCtx(ctx, test.X[row])
		d := sc.ScaleY(y) - sc.ScaleY(test.Y[row])
		se[i] = d * d
		return err == nil && !math.IsNaN(y) && !math.IsInf(y, 0)
	})
	return &trainScore{engine: eng, timing: t, mse: mean(se)}, ctx.Err()
}

// newTrainSchedule draws from seed the order the n test rows are scored in
// and their open-loop arrivals.
func newTrainSchedule(seed int64, s sizes, n int) ([]int, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	return order, poissonCount(rng, s.scoreRate, n)
}

// trainData is the paper's ccpp set, split 75/25 with seed 1.
func trainData() (train, test *reghd.Dataset, err error) {
	data, err := reghd.SyntheticDataset("ccpp", 1)
	if err != nil {
		return nil, nil, err
	}
	return data.Split(rand.New(rand.NewSource(1)), 0.25)
}

// runTrain is the train workload: FitParallel on the ccpp set at a fixed
// number of epochs, then the trained model scoring its test split.
func runTrain(ctx context.Context, e *env) (*result, error) {
	res := newResult("train")
	s := e.size

	// Set-up is generating the data and splitting it; FitParallel fits the
	// scaler as part of training.
	var train, test *reghd.Dataset
	err := repeatSetup(res, s, func() error {
		var err error
		train, test, err = trainData()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	order, due := newTrainSchedule(e.seed, s, test.Len())

	// FitParallel runs until --seconds have passed, at least minReps times;
	// every fit is the same deterministic computation.
	var (
		fits  []*trainFit
		rates []float64
	)
	start := time.Now()
	for len(fits) < s.minReps || time.Since(start).Seconds() < e.seconds {
		f, err := fitTrain(s, train)
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		fits = append(fits, f)
		rates = append(rates, f.throughput())
		res.count(int64(f.res.Rows), 0)
		if f.res.Epochs != s.trainEpochs {
			res.fail("FitParallel ran %d epochs, want %d", f.res.Epochs, s.trainEpochs)
		}
		if math.Float64bits(f.res.FinalMSE) != math.Float64bits(fits[0].res.FinalMSE) {
			res.fail("FitParallel is not deterministic: training mse %v, then %v", fits[0].res.FinalMSE, f.res.FinalMSE)
		}
	}
	res.set("throughput_per_s", median(rates))
	res.extra("train.fits", float64(len(fits)), "count")
	last := fits[len(fits)-1]
	score, err := scoreTrain(ctx, last.pipe, test, order, due, false)
	if err != nil {
		return nil, err
	}
	res.count(score.timing.ran(), score.timing.failed())
	reportLatency(res, score.timing)
	reportLateness(res, score.timing)
	res.set("mse", score.mse)
	if !(score.mse < 1) {
		res.fail("mse %v is not below 1 (no better than predicting the mean)", score.mse)
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	if !e.trace {
		return res, nil
	}

	// Traced run: one more fit, the scoring with engine metrics on, then
	// the encoder alone over the training rows.
	mem := startMem()
	traced, err := fitTrain(s, train)
	if err != nil {
		return nil, err
	}
	tscore, err := scoreTrain(ctx, traced.pipe, test, order, due, true)
	if err != nil {
		return nil, err
	}
	mem.report(res, int64(traced.res.Rows)+tscore.timing.ran())
	res.count(int64(traced.res.Rows)+tscore.timing.ran(), tscore.timing.failed())
	res.set("trace.overhead_pct", overheadPct(median(rates), traced.throughput()))
	reportLateness(res, tscore.timing)

	encodeNS, err := timeEncode(traced.pipe, train)
	if err != nil {
		return nil, err
	}
	fitNS, mergeNS := float64(traced.res.WallNS), float64(traced.res.MergeNS)
	res.set("train.encode_s", encodeNS/1e9)
	res.set("train.merge_s", mergeNS/1e9)
	res.set("train.epoch_mean_s", (fitNS-encodeNS-mergeNS)/1e9/float64(traced.res.Epochs))
	res.set("train.epochs", float64(traced.res.Epochs))

	tr := &tracer{pass: "train"}
	tr.add("train.fit", 0, -1, 0, traced.res.WallNS)
	spans := merge(tr, timingSpans("train", "engine.predict", tscore.timing))
	var st stageTotals
	st.add(tscore.engine)
	st.report(res, durations(spans, "engine.predict"))
	res.set("engine.partialfit_mean_us", 0)
	res.set("engine.republish_mean_ms", 0)
	if err := timeCheckpoint(res, traced.pipe, filepath.Join(e.work, "train.gob"), 3); err != nil {
		return nil, err
	}
	reportNoServing(res)
	return res, writeSpans(e.spans, "train", e.seed, spans)
}

// timeEncode times the trained pipeline's encoder over the standardized
// training rows on two goroutines — the encode share of FitParallel, which
// encodes every row once before its epochs.
func timeEncode(pipe *reghd.Pipeline, train *reghd.Dataset) (float64, error) {
	std, err := pipe.Scaler().Transform(train)
	if err != nil {
		return 0, err
	}
	enc := pipe.Model().Encoder()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < std.Len(); i += len(errs) {
				if _, err := enc.Encode(nil, std.X[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ns := float64(time.Since(t0))
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("encode: %w", err)
		}
	}
	return ns, nil
}
