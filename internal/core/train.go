package core

import (
	"context"
	"fmt"
	"math"

	"reghd/internal/dataset"
	"reghd/internal/hdc"
)

// TrainResult summarizes an iterative training run.
type TrainResult struct {
	// Epochs is the number of passes actually performed.
	Epochs int
	// History holds the monitored MSE after each epoch: the prequential
	// training MSE (prediction-before-update), or the validation MSE when
	// a validation set was supplied.
	History []float64
	// Converged reports whether the run stopped on the convergence test
	// rather than the epoch cap or the callback.
	Converged bool
	// FinalMSE is the last entry of History.
	FinalMSE float64
}

// trainCache holds the per-sample encodings computed once before the
// iterative passes: the bit-packed bipolar encodings always, and the raw
// encodings (as float32 to halve memory) when the prediction mode reads the
// raw query. packed[i] and raw[i] are row i's views into blocks that each
// hold many rows (see prepare).
type trainCache struct {
	packed []hdc.Binary
	raw    [][]float32
	y      []float64
}

// row unpacks cached sample idx into the scratch vectors and returns it as
// the encoded view the training kernels read.
func (c *trainCache) row(idx int, scratchS, scratchRaw hdc.Vector) encoded {
	e := encoded{packed: &c.packed[idx], s: scratchS}
	hdc.UnpackInto(scratchS, e.packed)
	if c.raw != nil {
		for j, v := range c.raw[idx] {
			scratchRaw[j] = float64(v)
		}
		e.raw = scratchRaw
	}
	return e
}

// prepare encodes the whole training set. Encoding cost is charged to the
// training counter once per sample; the hardware cost model charges it once
// per epoch, matching a streaming implementation that re-encodes each pass.
func (m *Model) prepare(train *dataset.Dataset) (*trainCache, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.Features() != m.enc.Features() {
		return nil, fmt.Errorf("core: dataset has %d features, encoder expects %d", train.Features(), m.enc.Features())
	}
	n, nw := train.Len(), (m.dim+63)/64
	needRaw := m.cfg.PredictMode.UsesRawQuery()
	c := &trainCache{packed: make([]hdc.Binary, n), y: train.Y}
	if needRaw {
		c.raw = make([][]float32, n)
	}
	// The rows are allocated in blocks of about 1 MiB of raw values, not as
	// one training-set-sized slab: a new cache then fits into the free spans
	// an earlier one left behind, where one slab needs a fresh contiguous
	// region each time. On the train workload (ccpp, D=4096, repeated fits)
	// one slab per fit raised peak RSS from 250 to 358 MB.
	block := max(1, (1<<20)/(4*m.dim))
	for lo := 0; lo < n; lo += block {
		rows := min(block, n-lo)
		words := make([]uint64, rows*nw)
		var raw []float32
		if needRaw {
			raw = make([]float32, rows*m.dim)
		}
		for r := 0; r < rows; r++ {
			c.packed[lo+r] = hdc.Binary{Words: words[r*nw : (r+1)*nw : (r+1)*nw], Dim: m.dim}
			if needRaw {
				c.raw[lo+r] = raw[r*m.dim : (r+1)*m.dim : (r+1)*m.dim]
			}
		}
	}
	// Encoding is embarrassingly parallel (the encoder is read-only);
	// it dominates Fit's cost, so spread it over the available cores. Each
	// worker encodes into a private scratch and copies the row out into the
	// cache, with a private operation counter merged afterwards.
	counters := make([]hdc.Counter, clampWorkers(0, n))
	scs := make([]*scratch, len(counters))
	for w := range scs {
		scs[w] = newScratch(m.cfg.Models, m.dim, needRaw)
	}
	err := forEachRowParallelCtx(context.Background(), n, len(counters), func(w, i int) error {
		e, err := m.encode(&counters[w], train.X[i], scs[w])
		if err != nil {
			return fmt.Errorf("core: encoding row %d: %w", i, err)
		}
		copy(c.packed[i].Words, e.packed.Words)
		if needRaw {
			r := c.raw[i]
			for j, v := range e.raw {
				r[j] = float32(v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w := range counters {
		m.TrainCounter.AddCounter(&counters[w])
	}
	return c, nil
}

// update applies the Eq. 7 model update and the Eq. 8 cluster update for
// one sample, using the similarities/confidences left by predictWith.
//
// The update vector matches the query representation of the prediction
// kernel (bipolar S for binary-query modes — the paper's Eq. 2/7 — raw H
// for raw-query modes): mixing representations turns the recursion into an
// asymmetric sign-data LMS that can diverge. The step is normalized by
// D/‖u‖² (NLMS) so that one update moves ŷ by exactly α·(y−ŷ) for every
// representation; for bipolar S the factor is 1 and the update reduces to
// the paper's M ← M + α(y−ŷ)S verbatim.
func (m *Model) update(ctr *hdc.Counter, e encoded, y, yhat float64) {
	m.samples++
	errv := y - yhat
	u := e.s
	gain := m.cfg.LearningRate
	if m.cfg.PredictMode.UsesRawQuery() {
		u = e.raw
		norm2 := hdc.Dot(ctr, u, u)
		if norm2 < 1e-12 {
			return
		}
		gain *= float64(m.dim) / norm2
	}
	if m.cfg.Models == 1 {
		hdc.AXPY(ctr, m.models[0], gain*errv, u)
		return
	}
	// Assignment census: bookkeeping only, so it recomputes the argmax with
	// a nil counter rather than disturbing the charged op counts.
	m.assignN[hdc.Argmax(nil, m.sims)]++
	switch m.cfg.UpdateRule {
	case UpdateWeighted:
		for i := range m.models {
			hdc.AXPY(ctr, m.models[i], gain*errv*m.conf[i], u)
		}
	case UpdateHardMax:
		l := hdc.Argmax(ctr, m.conf)
		hdc.AXPY(ctr, m.models[l], gain*errv, u)
	}
	// Cluster update (Eq. 8): pull the most-similar center toward the
	// sample, damped by (1−δ_l) so dominant patterns cannot saturate it.
	// Naive binarization has no updatable cluster state.
	if m.cfg.ClusterMode != ClusterNaiveBinary {
		l := hdc.Argmax(ctr, m.sims)
		hdc.AXPY(ctr, m.clusters[l], 1-m.sims[l], e.s)
	}
}

// trainOne replays one cached sample through the training pipeline —
// unpack, predict-before-update, Eq. 7/8 update — and returns the squared
// prequential error. It is the shared inner step of the sequential epoch
// and the per-shard worker passes of FitParallel.
func (m *Model) trainOne(cache *trainCache, idx int, scratchS, scratchRaw hdc.Vector) float64 {
	e := cache.row(idx, scratchS, scratchRaw)
	yhat := m.predictWith(m.TrainCounter, e, m.trainModelDot)
	d := cache.y[idx] - yhat
	m.update(m.TrainCounter, e, cache.y[idx], yhat)
	return d * d
}

// epoch runs one training pass in a shuffled order and returns the
// prequential MSE.
func (m *Model) epoch(cache *trainCache, scratchS, scratchRaw hdc.Vector) float64 {
	n := len(cache.packed)
	order := m.rng.Perm(n)
	var sqErr float64
	for _, idx := range order {
		sqErr += m.trainOne(cache, idx, scratchS, scratchRaw)
	}
	m.refreshBinaryShadows(m.TrainCounter)
	m.calibrate(cache, scratchS, scratchRaw)
	return sqErr / float64(n)
}

// calibrate refits the (a, b) output correction of binary-model modes by
// least squares of the training targets on the uncalibrated deployment
// predictions. It uses at most calibSamples samples per epoch.
const calibSamples = 512

func (m *Model) calibrate(cache *trainCache, scratchS, scratchRaw hdc.Vector) {
	if !m.cfg.PredictMode.UsesBinaryModel() {
		return
	}
	n := len(cache.packed)
	step := 1
	if n > calibSamples {
		step = n / calibSamples
	}
	var fit calibFit
	for idx := 0; idx < n; idx += step {
		e := cache.row(idx, scratchS, scratchRaw)
		fit.add(m.predictWith(m.TrainCounter, e, m.modelDot), cache.y[idx])
	}
	m.calibA, m.calibB = fit.solve()
}

// calibFit accumulates (uncalibrated deployment prediction, target) pairs
// for the least-squares output calibration that calibrate (per epoch) and
// RefreshShadows (streaming) fit.
type calibFit struct {
	sp, sy, spp, spy, cnt float64
}

func (f *calibFit) add(p, y float64) {
	f.sp += p
	f.sy += y
	f.spp += p * p
	f.spy += p * y
	f.cnt++
}

// solve returns the (a, b) minimizing Σ(a·p + b − y)²: identity slope and
// the mean target when the predictions have no variance to fit.
func (f *calibFit) solve() (a, b float64) {
	cnt := f.cnt
	varP := f.spp/cnt - (f.sp/cnt)*(f.sp/cnt)
	if varP < 1e-12 {
		return 1, f.sy / cnt
	}
	a = (f.spy/cnt - f.sp/cnt*f.sy/cnt) / varP
	return a, f.sy/cnt - a*f.sp/cnt
}

// Fit trains the model on train with iterative passes until the
// convergence criterion or the epoch cap is reached.
func (m *Model) Fit(train *dataset.Dataset) (*TrainResult, error) {
	return m.fit(train, nil, nil)
}

// FitWithValidation trains like Fit but monitors convergence on the MSE of
// the supplied validation set instead of the prequential training MSE.
func (m *Model) FitWithValidation(train, val *dataset.Dataset) (*TrainResult, error) {
	if err := val.Validate(); err != nil {
		return nil, fmt.Errorf("core: validation set: %w", err)
	}
	return m.fit(train, val, nil)
}

// FitCallback trains like Fit, invoking cb after every epoch with the epoch
// index (1-based) and the monitored MSE. Returning false stops training
// early; the run is then reported as not converged.
func (m *Model) FitCallback(train *dataset.Dataset, cb func(epoch int, mse float64) bool) (*TrainResult, error) {
	return m.fit(train, nil, cb)
}

func (m *Model) fit(train, val *dataset.Dataset, cb func(int, float64) bool) (*TrainResult, error) {
	cache, err := m.prepare(train)
	if err != nil {
		return nil, err
	}
	return m.fitCache(cache, val, cb)
}

// fitCache is the iterative-training loop over an already-encoded cache;
// fit and the single-worker path of FitParallel share it so both run the
// identical sequential algorithm.
func (m *Model) fitCache(cache *trainCache, val *dataset.Dataset, cb func(int, float64) bool) (*TrainResult, error) {
	scratchS := hdc.NewVector(m.dim)
	var scratchRaw hdc.Vector
	if cache.raw != nil {
		scratchRaw = hdc.NewVector(m.dim)
	}
	res := &TrainResult{}
	prev := math.Inf(1)
	streak := 0
	for ep := 1; ep <= m.cfg.Epochs; ep++ {
		mse := m.epoch(cache, scratchS, scratchRaw)
		m.trained = true
		if val != nil {
			vm, err := m.evalMSE(val)
			if err != nil {
				return nil, err
			}
			mse = vm
		}
		res.Epochs = ep
		res.History = append(res.History, mse)
		res.FinalMSE = mse
		if cb != nil && !cb(ep, mse) {
			return res, nil
		}
		// Convergence: relative improvement below Tol for Patience
		// consecutive epochs ("minor changes during a few consecutive
		// iterations").
		if prev > 0 && (prev-mse)/math.Max(prev, 1e-12) < m.cfg.Tol {
			streak++
			if streak >= m.cfg.Patience {
				res.Converged = true
				return res, nil
			}
		} else {
			streak = 0
		}
		prev = mse
	}
	return res, nil
}

// evalMSE computes the model's MSE on a dataset using the configured
// prediction pipeline (without charging the inference counter, so training
// instrumentation stays clean).
func (m *Model) evalMSE(d *dataset.Dataset) (float64, error) {
	saved := m.InferCounter
	m.InferCounter = nil
	defer func() { m.InferCounter = saved }()
	pred, err := m.PredictBatch(d.X)
	if err != nil {
		return 0, err
	}
	return dataset.MSE(pred, d.Y)
}

// Evaluate returns the model's MSE on a dataset; a convenience wrapper used
// by experiments and examples.
func (m *Model) Evaluate(d *dataset.Dataset) (float64, error) {
	if !m.trained {
		return 0, ErrNotTrained
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	return m.evalMSE(d)
}
