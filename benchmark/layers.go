package main

import (
	"os"
	"runtime"
	"time"

	"reghd"
)

// This file holds the measurements shared by the workloads.

// repeatSetup runs setup at least s.minReps times and until s.setupMin
// has passed, calling between (untimed, if not nil) before every
// repetition after the first, and records the median set-up time. The workload goes on with
// the state the last repetition left.
func repeatSetup(res *result, s sizes, setup func() error, between func()) error {
	var ds []float64
	start := time.Now()
	for len(ds) < s.minReps || time.Since(start) < s.setupMin {
		if len(ds) > 0 && between != nil {
			between()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(ds))
	res.extra("setup.reps", float64(len(ds)), "count")
	return nil
}

// stageTotals sums the engine metrics (Engine.Metrics: per-stage time and
// the admission gate's shed count) of every engine a pass used.
type stageTotals struct {
	ns, calls [4]int64
	shed      uint64
}

// stageMetrics names the stage metrics in reghd.StageSummary order.
var stageMetrics = [4]string{
	"stage.standardize_mean_us",
	"stage.encode_mean_us",
	"stage.similarity_mean_us",
	"stage.readout_mean_us",
}

// add folds in one engine's metrics; nil is ignored.
func (s *stageTotals) add(e *reghd.Engine) {
	if e == nil {
		return
	}
	m := e.Metrics()
	for i, st := range []reghd.StageStat{m.Stages.Standardize, m.Stages.Encode, m.Stages.Similarity, m.Stages.Readout} {
		s.ns[i] += st.TotalNS
		s.calls[i] += st.Calls
	}
	s.shed += m.Robustness.RequestsShed
}

// report records the stage and engine metrics given the durations of the
// engine.predict spans the stages ran inside.
func (s *stageTotals) report(res *result, predictNS []float64) {
	var sum float64
	for i, name := range stageMetrics {
		var m float64
		if s.calls[i] > 0 {
			m = float64(s.ns[i]) / float64(s.calls[i])
		}
		res.set(name, m/1e3)
		sum += m
	}
	pm := mean(predictNS)
	res.set("engine.predict_mean_us", pm/1e3)
	res.set("engine.predict_p90_us", quantile(predictNS, 0.90)/1e3)
	res.set("engine.self_mean_us", (pm-sum)/1e3)
	coverage := 0.0
	if pm > 0 {
		coverage = sum / pm
	}
	res.set("stage.coverage", coverage)
	res.set("engine.shed", float64(s.shed))
}

// memSpan measures the Go runtime of this process over a phase.
type memSpan struct{ before runtime.MemStats }

func startMem() *memSpan {
	m := &memSpan{}
	runtime.ReadMemStats(&m.before)
	return m
}

// report records GC pause, GC cycles and allocation per operation since
// startMem.
func (m *memSpan) report(res *result, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
	res.set("runtime.gc_cycles", float64(after.NumGC-m.before.NumGC))
	per := 0.0
	if ops > 0 {
		per = float64(after.TotalAlloc-m.before.TotalAlloc) / 1024 / float64(ops)
	}
	res.set("runtime.alloc_kb_per_op", per)
}

// timeCheckpoint saves pipe to path, loads it back and builds an engine
// from it, reps times, and records the checkpoint layer.
func timeCheckpoint(res *result, pipe *reghd.Pipeline, path string, reps int) error {
	var save, decode, build []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if err := pipe.SaveFile(path); err != nil {
			return err
		}
		t1 := time.Now()
		loaded, err := reghd.LoadPipelineFile(path)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := reghd.NewPipelineEngine(loaded); err != nil {
			return err
		}
		save = append(save, float64(t1.Sub(t0)))
		decode = append(decode, float64(t2.Sub(t1)))
		build = append(build, float64(time.Since(t2)))
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	reportCheckpoint(res, save, decode, build, float64(info.Size()), float64(pipe.Model().DeploymentBytes()))
	return nil
}

// reportNoServing records the HTTP and registry layers of a workload that
// runs neither: 0.
func reportNoServing(res *result) {
	for _, name := range []string{
		"reghd-serve.rtt_mean_us", "reghd-serve.self_mean_us",
		"registry.predict_mean_us", "registry.route_mean_us", "registry.load_mean_ms",
		"registry.hit_ratio", "registry.evictions", "registry.load_dedup",
	} {
		res.set(name, 0)
	}
}

// reportNoTraining records the train layer of a workload that does not run
// FitParallel as its measured work: 0.
func reportNoTraining(res *result) {
	for _, name := range []string{"train.encode_s", "train.merge_s", "train.epoch_mean_s", "train.epochs"} {
		res.set(name, 0)
	}
}
