package reghd

import (
	"errors"
	"fmt"
	"io"
	"time"

	"reghd/internal/core"
	"reghd/internal/dataset"
)

// Pipeline bundles a RegHD model with feature/target standardization: Fit
// learns the scaler from the training data, trains the model on
// standardized samples, and Predict returns outputs in the original target
// units. This mirrors the preprocessing used throughout the paper's
// evaluation.
//
// For observability, EnableStageTiming breaks prediction latency down by
// stage (standardize/encode/similarity/readout); to serve a fitted pipeline
// concurrently with full metrics, wrap it in an Engine
// (NewPipelineEngine) and call EnableMetrics there.
type Pipeline struct {
	model  *Model
	scaler *Scaler

	// stages, when non-nil, accumulates per-stage prediction wall time:
	// the standardize stage is recorded here, the encode/similarity/
	// readout stages by the model (Model.Stages points at the same
	// accumulator).
	stages *StageTimes
}

// NewPipeline wraps an untrained model.
func NewPipeline(m *Model) *Pipeline { return &Pipeline{model: m} }

// Model returns the wrapped model.
func (p *Pipeline) Model() *Model { return p.model }

// Scaler returns the fitted standardization, or nil before Fit.
func (p *Pipeline) Scaler() *Scaler { return p.scaler }

// EnableStageTiming turns on per-stage prediction timing
// (standardize/encode/similarity/readout) and returns the accumulator;
// summarize it with StageTimes.Summary. Idempotent. Install before serving
// begins — recording itself is atomic and safe under concurrent
// prediction. Timing costs a timestamp per stage boundary, so leave it off
// for throughput-critical runs.
func (p *Pipeline) EnableStageTiming() *StageTimes {
	if p.stages == nil {
		p.stages = &StageTimes{}
		p.model.Stages = p.stages
	}
	return p.stages
}

// StageTimes returns the per-stage timing accumulator, or nil when stage
// timing was never enabled.
func (p *Pipeline) StageTimes() *StageTimes { return p.stages }

// Fit standardizes train and trains the model, returning the training
// summary.
func (p *Pipeline) Fit(train *Dataset) (*TrainResult, error) {
	sc, err := dataset.FitScaler(train, true)
	if err != nil {
		return nil, err
	}
	trainS, err := sc.Transform(train)
	if err != nil {
		return nil, err
	}
	res, err := p.model.Fit(trainS)
	if err != nil {
		return nil, err
	}
	p.scaler = sc
	return res, nil
}

// Predict returns the regression output for x in original target units.
func (p *Pipeline) Predict(x []float64) (float64, error) {
	if p.scaler == nil {
		return 0, errors.New("reghd: pipeline has not been fitted")
	}
	ys, err := standardized(p.scaler, p.stages, [][]float64{x}, func(rows [][]float64) ([]float64, error) {
		y, err := p.model.Predict(rows[0])
		return []float64{y}, err
	})
	if err != nil {
		return 0, err
	}
	return ys[0], nil
}

// PredictBatch predicts every row of xs: the batch is standardized once and
// fanned out over GOMAXPROCS prediction workers, with outputs mapped back
// to original target units.
func (p *Pipeline) PredictBatch(xs [][]float64) ([]float64, error) {
	if p.scaler == nil {
		return nil, errors.New("reghd: pipeline has not been fitted")
	}
	return standardized(p.scaler, p.stages, xs, func(rows [][]float64) ([]float64, error) {
		ys, err := p.model.PredictBatchParallel(rows, 0)
		if err != nil {
			return nil, fmt.Errorf("reghd: %w", err)
		}
		return ys, nil
	})
}

// standardized is the standardize step shared by Pipeline and Engine
// prediction: it copies and standardizes every row of xs (one
// StageStandardize observation into st when st is non-nil), runs predict on
// the standardized rows, and maps the outputs back to original target
// units. A nil scaler passes rows and outputs through unchanged.
func standardized(sc *Scaler, st *StageTimes, xs [][]float64, predict func([][]float64) ([]float64, error)) ([]float64, error) {
	if sc == nil {
		return predict(xs)
	}
	var ts time.Time
	if st != nil {
		ts = time.Now()
	}
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		row := append([]float64(nil), x...)
		if err := sc.TransformRow(row); err != nil {
			return nil, fmt.Errorf("reghd: standardizing row %d: %w", i, err)
		}
		rows[i] = row
	}
	if st != nil {
		st.Observe(StageStandardize, time.Since(ts))
	}
	ys, err := predict(rows)
	if err != nil {
		return nil, err
	}
	for i := range ys {
		ys[i] = sc.InverseY(ys[i])
	}
	return ys, nil
}

// Evaluate returns the pipeline's MSE on a dataset in original units.
func (p *Pipeline) Evaluate(d *Dataset) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	pred, err := p.PredictBatch(d.X)
	if err != nil {
		return 0, err
	}
	return dataset.MSE(pred, d.Y)
}

// Save serializes the fitted pipeline — model and standardization together,
// as a checkpoint with a scaler section — so a restored pipeline predicts
// in original units immediately.
func (p *Pipeline) Save(w io.Writer) error {
	if p.scaler == nil {
		return errors.New("reghd: pipeline has not been fitted")
	}
	return p.model.SaveCheckpoint(w, p.scaler)
}

// SaveFile saves the pipeline to a file path atomically (temp file, sync,
// rename), so a reader never sees a torn checkpoint.
func (p *Pipeline) SaveFile(path string) error { return core.WriteFileAtomic(path, p.Save) }

// LoadPipeline restores a pipeline previously written with Save. Damaged
// input returns an error wrapping ErrCorruptModel; a bare model checkpoint
// (no scaler section) is rejected — load it with LoadModel.
func LoadPipeline(r io.Reader) (*Pipeline, error) { return pipelineOf(core.LoadCheckpoint(r)) }

// LoadPipelineFile restores a pipeline from a file path.
func LoadPipelineFile(path string) (*Pipeline, error) {
	return pipelineOf(core.LoadCheckpointFile(path))
}

func pipelineOf(m *Model, sc *Scaler, err error) (*Pipeline, error) {
	if err == nil && sc == nil {
		err = errors.New("reghd: checkpoint holds a bare model (no scaler section); load it with LoadModel")
	}
	if err != nil {
		return nil, err
	}
	return &Pipeline{model: m, scaler: sc}, nil
}
