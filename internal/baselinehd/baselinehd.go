// Package baselinehd implements the paper's HD baseline (Table 1,
// "Baseline-HD", reference [18]): regression emulated by HD classification.
// The output range is quantized into bins, one class hypervector per bin; a
// query is answered with the center of the most similar bin. Because the
// output is inherently discrete, quality is poor on high-precision
// regression tasks — the motivation for native RegHD.
package baselinehd

import (
	"errors"
	"fmt"
	"math/rand"

	"reghd/internal/dataset"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// Config holds the classifier hyper-parameters.
type Config struct {
	// Bins is the number of output classes (class hypervectors).
	Bins int
	// Epochs caps the perceptron-style retraining passes.
	Epochs int
	// Seed drives the per-epoch shuffling.
	Seed int64
}

// DefaultConfig uses 64 bins, the count the paper describes as "hundreds of
// class hypervectors" scaled to the datasets' precision, with 20 retraining
// passes.
func DefaultConfig() Config {
	return Config{Bins: 64, Epochs: 20, Seed: 1}
}

// Validate fills defaults and rejects invalid settings.
func (c *Config) Validate() error {
	if c.Bins == 0 {
		c.Bins = 64
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.Bins < 2 {
		return fmt.Errorf("baselinehd: need at least 2 bins, got %d", c.Bins)
	}
	if c.Epochs < 0 {
		return errors.New("baselinehd: negative epochs")
	}
	return nil
}

// Model is the trained bin classifier.
type Model struct {
	cfg     Config
	enc     encoding.Encoder
	classes []hdc.Vector // one accumulator hypervector per bin
	lo, hi  float64      // training target range
	rng     *rand.Rand
	trained bool

	// TrainCounter and InferCounter optionally record primitive operations
	// for the hardware cost model.
	TrainCounter *hdc.Counter
	InferCounter *hdc.Counter
}

// New constructs an untrained baseline classifier over the encoder.
func New(enc encoding.Encoder, cfg Config) (*Model, error) {
	if enc == nil {
		return nil, errors.New("baselinehd: nil encoder")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, enc: enc, rng: rand.New(rand.NewSource(cfg.Seed))}
	m.classes = make([]hdc.Vector, cfg.Bins)
	for i := range m.classes {
		m.classes[i] = hdc.NewVector(enc.Dim())
	}
	return m, nil
}

// Name implements learner.Regressor.
func (m *Model) Name() string { return "baseline-hd" }

// Bins returns the number of output classes.
func (m *Model) Bins() int { return m.cfg.Bins }

// bin maps a target value to its class index, clamping to the range seen
// during training.
func (m *Model) bin(y float64) int {
	if y <= m.lo {
		return 0
	}
	if y >= m.hi {
		return m.cfg.Bins - 1
	}
	b := int(float64(m.cfg.Bins) * (y - m.lo) / (m.hi - m.lo))
	if b >= m.cfg.Bins {
		b = m.cfg.Bins - 1
	}
	return b
}

// binCenter returns the representative output value of class b.
func (m *Model) binCenter(b int) float64 {
	width := (m.hi - m.lo) / float64(m.cfg.Bins)
	return m.lo + (float64(b)+0.5)*width
}

// classify returns the bin whose hypervector is most similar to s.
func (m *Model) classify(ctr *hdc.Counter, s hdc.Vector) int {
	best, bestSim := 0, hdc.Cosine(ctr, s, m.classes[0])
	for i := 1; i < len(m.classes); i++ {
		if sim := hdc.Cosine(ctr, s, m.classes[i]); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	ctr.Add(hdc.OpCmp, uint64(len(m.classes)-1))
	return best
}

// Fit performs single-pass bundling followed by perceptron-style
// retraining: a misclassified sample is added to its true class and
// subtracted from the wrongly predicted class.
func (m *Model) Fit(train *dataset.Dataset) error {
	if err := train.Validate(); err != nil {
		return err
	}
	if train.Features() != m.enc.Features() {
		return fmt.Errorf("baselinehd: dataset has %d features, encoder expects %d", train.Features(), m.enc.Features())
	}
	m.lo, m.hi = train.TargetRange()
	//lint:ignore floatcmp degenerate constant-target guard before the range division
	if m.lo == m.hi {
		m.hi = m.lo + 1 // degenerate constant target
	}
	encoded := make([]hdc.Vector, train.Len())
	for i, x := range train.X {
		s, err := encoding.Bipolar(m.enc, m.TrainCounter, x)
		if err != nil {
			return fmt.Errorf("baselinehd: encoding row %d: %w", i, err)
		}
		encoded[i] = s
	}
	// Single-pass bundling.
	for i, s := range encoded {
		hdc.Add(m.TrainCounter, m.classes[m.bin(train.Y[i])], s)
	}
	// Iterative retraining.
	for ep := 0; ep < m.cfg.Epochs; ep++ {
		mistakes := 0
		for _, idx := range m.rng.Perm(len(encoded)) {
			s := encoded[idx]
			want := m.bin(train.Y[idx])
			got := m.classify(m.TrainCounter, s)
			if got != want {
				mistakes++
				hdc.AXPY(m.TrainCounter, m.classes[want], 1, s)
				hdc.AXPY(m.TrainCounter, m.classes[got], -1, s)
			}
		}
		if mistakes == 0 {
			break
		}
	}
	m.trained = true
	return nil
}

// ErrNotTrained is returned by Predict before Fit.
var ErrNotTrained = errors.New("baselinehd: model has not been trained")

// Predict encodes x, finds the most similar class hypervector, and returns
// that bin's center value.
func (m *Model) Predict(x []float64) (float64, error) {
	if !m.trained {
		return 0, ErrNotTrained
	}
	s, err := encoding.Bipolar(m.enc, m.InferCounter, x)
	if err != nil {
		return 0, err
	}
	return m.binCenter(m.classify(m.InferCounter, s)), nil
}
