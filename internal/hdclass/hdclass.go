// Package hdclass implements a general hyperdimensional classifier — the
// learning primitive the paper's HD baseline builds on ([18], [19], [23])
// and the natural companion of RegHD in an HD learning system. Training is
// the standard two-phase recipe: single-pass bundling of encoded samples
// into class hypervectors, then iterative adaptive retraining (OnlineHD
// style: misclassified samples update the true and predicted classes
// scaled by how wrong the similarity was). Inference optionally runs on
// binarized class hypervectors with Hamming similarity, the same
// quantization trade-off RegHD makes for regression.
package hdclass

import (
	"errors"
	"fmt"
	"math/rand"

	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// Config holds the classifier hyper-parameters.
type Config struct {
	// Classes is the number of labels.
	Classes int
	// Epochs caps the retraining passes.
	Epochs int
	// Seed drives the per-epoch shuffling.
	Seed int64
	// Quantized selects binarized class hypervectors with Hamming
	// similarity at inference (training still accumulates into integer
	// class vectors, re-quantized per epoch).
	Quantized bool
}

// Validate fills defaults and rejects invalid settings.
func (c *Config) Validate() error {
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.Classes < 2 {
		return fmt.Errorf("hdclass: need at least 2 classes, got %d", c.Classes)
	}
	if c.Epochs < 0 {
		return errors.New("hdclass: negative epochs")
	}
	return nil
}

// Classifier is the trained model.
type Classifier struct {
	cfg        Config
	enc        encoding.Encoder
	classes    []hdc.Vector
	classesBin []*hdc.Binary
	rng        *rand.Rand
	trained    bool
}

// New constructs an untrained classifier over the encoder.
func New(enc encoding.Encoder, cfg Config) (*Classifier, error) {
	if enc == nil {
		return nil, errors.New("hdclass: nil encoder")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Classifier{cfg: cfg, enc: enc, rng: rand.New(rand.NewSource(cfg.Seed))}
	c.classes = make([]hdc.Vector, cfg.Classes)
	for i := range c.classes {
		c.classes[i] = hdc.NewVector(enc.Dim())
	}
	if cfg.Quantized {
		c.classesBin = make([]*hdc.Binary, cfg.Classes)
		for i := range c.classesBin {
			c.classesBin[i] = hdc.NewBinary(enc.Dim())
		}
	}
	return c, nil
}

// Classes returns the number of labels.
func (c *Classifier) Classes() int { return c.cfg.Classes }

// similarities fills sims with the class similarities of an encoded
// sample (cosine for integer classes, Hamming for quantized inference).
func (c *Classifier) similarities(s hdc.Vector, packed *hdc.Binary, sims []float64) {
	if c.cfg.Quantized {
		for i, cb := range c.classesBin {
			sims[i] = hdc.HammingSimilarity(nil, packed, cb)
		}
		return
	}
	for i, cv := range c.classes {
		sims[i] = hdc.Cosine(nil, s, cv)
	}
}

// Fit trains on feature rows X with integer labels in [0, Classes).
func (c *Classifier) Fit(x [][]float64, labels []int) error {
	if len(x) == 0 || len(x) != len(labels) {
		return fmt.Errorf("hdclass: %d samples with %d labels", len(x), len(labels))
	}
	encoded := make([]hdc.Vector, len(x))
	packed := make([]*hdc.Binary, len(x))
	for i, row := range x {
		if labels[i] < 0 || labels[i] >= c.cfg.Classes {
			return fmt.Errorf("hdclass: label %d out of range [0,%d)", labels[i], c.cfg.Classes)
		}
		s, err := encoding.Bipolar(c.enc, nil, row)
		if err != nil {
			return fmt.Errorf("hdclass: encoding row %d: %w", i, err)
		}
		encoded[i] = s
		packed[i] = hdc.Pack(nil, s)
	}
	// Phase 1: single-pass bundling.
	for i, s := range encoded {
		hdc.Add(nil, c.classes[labels[i]], s)
	}
	c.refresh()
	// Phase 2: adaptive retraining. A misclassified sample pulls its true
	// class toward it and pushes the wrongly predicted class away, each
	// scaled by how confidently wrong the model was.
	sims := make([]float64, c.cfg.Classes)
	for ep := 0; ep < c.cfg.Epochs; ep++ {
		mistakes := 0
		for _, i := range c.rng.Perm(len(encoded)) {
			c.similarities(encoded[i], packed[i], sims)
			pred := hdc.Argmax(nil, sims)
			want := labels[i]
			if pred == want {
				continue
			}
			mistakes++
			hdc.AXPY(nil, c.classes[want], 1-sims[want], encoded[i])
			hdc.AXPY(nil, c.classes[pred], -(1 - sims[pred]), encoded[i])
		}
		c.refresh()
		if mistakes == 0 {
			break
		}
	}
	c.trained = true
	return nil
}

// refresh re-quantizes the binary class shadows.
func (c *Classifier) refresh() {
	if !c.cfg.Quantized {
		return
	}
	for i, cv := range c.classes {
		hdc.PackInto(nil, c.classesBin[i], cv)
	}
}

// ErrNotTrained is returned by prediction before Fit.
var ErrNotTrained = errors.New("hdclass: classifier has not been trained")

// Predict returns the most similar class for x.
func (c *Classifier) Predict(x []float64) (int, error) {
	scores, err := c.Scores(x)
	if err != nil {
		return 0, err
	}
	return hdc.Argmax(nil, scores), nil
}

// Scores returns the per-class similarity of x.
func (c *Classifier) Scores(x []float64) ([]float64, error) {
	if !c.trained {
		return nil, ErrNotTrained
	}
	s, err := encoding.Bipolar(c.enc, nil, x)
	if err != nil {
		return nil, err
	}
	var packed *hdc.Binary
	if c.cfg.Quantized {
		packed = hdc.Pack(nil, s)
	}
	sims := make([]float64, c.cfg.Classes)
	c.similarities(s, packed, sims)
	return sims, nil
}

// Accuracy evaluates the classifier on labeled rows.
func (c *Classifier) Accuracy(x [][]float64, labels []int) (float64, error) {
	if len(x) == 0 || len(x) != len(labels) {
		return 0, fmt.Errorf("hdclass: %d samples with %d labels", len(x), len(labels))
	}
	correct := 0
	for i, row := range x {
		pred, err := c.Predict(row)
		if err != nil {
			return 0, err
		}
		if pred == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x)), nil
}
