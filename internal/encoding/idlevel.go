package encoding

import (
	"fmt"
	"math/rand"

	"reghd/internal/hdc"
)

// IDLevel is the classic record-based HD encoder (the "different encoding
// methods depending on data types" the paper cites in §2.2): each feature
// position k gets a random ID hypervector, each quantized feature value gets
// a level hypervector, and the encoding bundles the ID⊙level bindings:
//
//	H = Σ_k ID_k ⊙ L(quantize(x_k))
//
// Level hypervectors are built by progressive bit flips so that nearby
// quantization levels stay similar — the similarity-preserving property.
// IDLevel serves time-series/sensor-style inputs and is used in ablations
// against the Nonlinear encoder.
type IDLevel struct {
	dim      int
	features int
	levels   int
	lo, hi   float64 // quantization range for feature values
	ids      []hdc.Vector
	lvls     []hdc.Vector
}

// NewIDLevel constructs an ID-level encoder with the given number of
// quantization levels over the value range [lo, hi].
func NewIDLevel(rng *rand.Rand, nFeatures, dim, levels int, lo, hi float64) (*IDLevel, error) {
	switch {
	case nFeatures <= 0:
		return nil, fmt.Errorf("encoding: nFeatures must be positive, got %d", nFeatures)
	case dim <= 0:
		return nil, fmt.Errorf("encoding: dim must be positive, got %d", dim)
	case levels < 2:
		return nil, fmt.Errorf("encoding: need at least 2 levels, got %d", levels)
	case !(lo < hi):
		return nil, fmt.Errorf("encoding: invalid level range [%v, %v]", lo, hi)
	}
	e := &IDLevel{
		dim:      dim,
		features: nFeatures,
		levels:   levels,
		lo:       lo,
		hi:       hi,
		ids:      make([]hdc.Vector, nFeatures),
		lvls:     make([]hdc.Vector, levels),
	}
	for k := range e.ids {
		e.ids[k] = hdc.RandomBipolar(rng, dim)
	}
	// Level 0 is random; each subsequent level flips dim/(2·(levels−1))
	// fresh random positions, so D/2 positions flip across the whole chain:
	// L(0) and L(levels−1) end up nearly orthogonal (cosine ≈ 0) while
	// adjacent levels are nearly identical.
	e.lvls[0] = hdc.RandomBipolar(rng, dim)
	perm := rng.Perm(dim)
	flipsPerLevel := dim / (2 * (levels - 1))
	next := 0
	for l := 1; l < levels; l++ {
		v := e.lvls[l-1].Clone()
		for i := 0; i < flipsPerLevel && next < dim; i++ {
			v[perm[next]] = -v[perm[next]]
			next++
		}
		e.lvls[l] = v
	}
	return e, nil
}

// Dim returns the hyperdimensional size D.
func (e *IDLevel) Dim() int { return e.dim }

// Features returns the expected input dimensionality.
func (e *IDLevel) Features() int { return e.features }

// Levels returns the number of quantization levels.
func (e *IDLevel) Levels() int { return e.levels }

// quantize maps a feature value to a level index, clamping out-of-range
// values to the boundary levels.
func (e *IDLevel) quantize(x float64) int {
	if x <= e.lo {
		return 0
	}
	if x >= e.hi {
		return e.levels - 1
	}
	l := int(float64(e.levels) * (x - e.lo) / (e.hi - e.lo))
	if l >= e.levels {
		l = e.levels - 1
	}
	return l
}

// EncodeInto implements Encoder. H = Σ_k ID_k ⊙ L(quantize(x_k)) is
// bundled into raw; without raw it is bundled straight into bipolar (fresh
// scratch for packed alone) and signed in place. S = sign(H), ties to +1,
// and packed holds S bit-packed.
//
// The in-place sign of the S-only route charges one comparison per
// dimension, while S next to raw charges hdc.SignInto's comparison, read
// and write per dimension: the two routes have always been priced that
// way, and the op-count contract pins both.
func (e *IDLevel) EncodeInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector, packed *hdc.Binary) error {
	if err := checkEncode(e.dim, e.features, x, raw, bipolar, packed); err != nil {
		return err
	}
	h := raw
	if h == nil {
		h = bipolar
	}
	if h == nil {
		if packed == nil {
			return nil
		}
		h = hdc.NewVector(e.dim)
	}
	e.bundle(ctr, h, x)
	switch {
	case raw == nil:
		hdc.SignInto(nil, h, h)
		ctr.Add(hdc.OpCmp, uint64(e.dim))
		bipolar = h
	case bipolar != nil || packed != nil:
		if bipolar == nil {
			bipolar = hdc.NewVector(e.dim)
		}
		hdc.SignInto(ctr, bipolar, raw)
	}
	if packed != nil {
		hdc.PackInto(ctr, packed, bipolar)
	}
	return nil
}

// Encode returns the bundled (integer-valued) hypervector H of x in a
// fresh vector.
func (e *IDLevel) Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	return encodeRaw(e, ctr, x)
}

// bundle overwrites h with Σ_k ID_k ⊙ L(quantize(x_k)).
func (e *IDLevel) bundle(ctr *hdc.Counter, h hdc.Vector, x []float64) {
	h.Zero()
	for k, v := range x {
		lvl := e.lvls[e.quantize(v)]
		id := e.ids[k]
		for j := range h {
			h[j] += id[j] * lvl[j] // binding is elementwise multiply for bipolar vectors
		}
	}
	n := uint64(e.features) * uint64(e.dim)
	ctr.Add(hdc.OpFloatMul, n)
	ctr.Add(hdc.OpFloatAdd, n)
	ctr.Add(hdc.OpCmp, uint64(e.features)) // quantization
	ctr.Add(hdc.OpMemRead, 2*n)
	ctr.Add(hdc.OpMemWrite, uint64(e.dim))
}
