// Package encoding implements the similarity-preserving encoders that map
// original-space feature vectors into hyperdimensional space.
//
// The primary encoder is the paper's Eq. 1 nonlinear encoder:
//
//	H_j = cos(F·B_j + b_j) · sin(F·B_j)
//
// where each B_j is a random bipolar base vector over the n input features
// and b_j ~ U[0, 2π). The base vectors are random, hence nearly orthogonal,
// and the trigonometric nonlinearity makes the encoding a random-Fourier-
// feature-like kernel map: inputs close in the original space produce
// hypervectors with high cosine similarity, while distant inputs map to
// nearly orthogonal hypervectors. That nonlinearity is what lets RegHD learn
// nonlinear regression functions with purely linear model updates.
package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"reghd/internal/hdc"
)

// Nonlinear is the Eq. 1 encoder. It is safe for concurrent use once
// constructed: EncodeInto only reads the projection state.
// Projection selects the distribution of the base hypervectors B_k.
type Projection int

const (
	// ProjGaussian draws base components from the standard normal
	// distribution. This is the default: it makes the encoder a faithful
	// random-Fourier-feature map with a Gaussian similarity kernel for any
	// input dimensionality, and matches the authors' released
	// implementations of this encoder.
	ProjGaussian Projection = iota
	// ProjBipolar draws base components uniformly from {−1,+1}, the
	// paper's literal "bipolar base hypervectors". For inputs with few
	// features the projection magnitudes are then quantized (for n=1 every
	// dimension sees the same |phase|), which makes the induced kernel
	// periodic — distant inputs alias onto similar encodings. Provided for
	// ablation against the paper text; prefer ProjGaussian.
	ProjBipolar
)

type Nonlinear struct {
	dim       int       // hyperdimensional size D
	features  int       // original-space size n
	bandwidth float64   // kernel bandwidth: projections are divided by this
	proj      []float64 // features*dim projection, row k = B_k
	bias      []float64 // dim biases b_j in [0, 2π)
	center    []float64 // per-dimension constant −sin(b_j)/2 of the Eq. 1 product

	// packed is the bit-packed sign form of proj, non-nil exactly when every
	// projection entry is ±1 (ProjBipolar). The projection then runs as a
	// sign-selected add/sub kernel over 64×-smaller, cache-resident state —
	// bit-for-bit identical to the dense multiply (see hdc.SignMatrix).
	packed *hdc.SignMatrix

	// pool recycles D-length projection scratch across EncodeInto calls
	// that never hand the buffer to the caller (the direct raw→packed
	// path), so the binary serving path allocates nothing per encode.
	pool sync.Pool
}

// NewNonlinear constructs an encoder for nFeatures-dimensional inputs into
// dim-dimensional hyperspace, drawing base hypervectors from rng. The
// kernel bandwidth defaults to 2√nFeatures, which for standardized inputs
// places the similarity length-scale at √n — the usual median-distance
// heuristic. Use NewNonlinearBandwidth to override.
func NewNonlinear(rng *rand.Rand, nFeatures, dim int) (*Nonlinear, error) {
	if nFeatures <= 0 {
		return nil, fmt.Errorf("encoding: nFeatures must be positive, got %d", nFeatures)
	}
	return NewNonlinearBandwidth(rng, nFeatures, dim, 2*math.Sqrt(float64(nFeatures)))
}

// NewNonlinearBandwidth constructs the Eq. 1 encoder with an explicit
// kernel bandwidth and Gaussian base hypervectors. Feature projections
// F·B_j are divided by the bandwidth before the trigonometric nonlinearity,
// so the induced similarity between two inputs decays as
// exp(−2‖Δx‖²/bandwidth²): larger bandwidths make the encoder smoother
// (more generalization), smaller ones sharper (more memorization).
func NewNonlinearBandwidth(rng *rand.Rand, nFeatures, dim int, bandwidth float64) (*Nonlinear, error) {
	return NewNonlinearProjection(rng, nFeatures, dim, bandwidth, ProjGaussian)
}

// NewNonlinearProjection constructs the Eq. 1 encoder with full control
// over the bandwidth and the base-hypervector distribution.
func NewNonlinearProjection(rng *rand.Rand, nFeatures, dim int, bandwidth float64, kind Projection) (*Nonlinear, error) {
	if nFeatures <= 0 {
		return nil, fmt.Errorf("encoding: nFeatures must be positive, got %d", nFeatures)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("encoding: dim must be positive, got %d", dim)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("encoding: bandwidth must be positive, got %v", bandwidth)
	}
	e := &Nonlinear{
		dim:       dim,
		features:  nFeatures,
		bandwidth: bandwidth,
		proj:      make([]float64, nFeatures*dim),
		bias:      make([]float64, dim),
	}
	switch kind {
	case ProjGaussian:
		for i := range e.proj {
			e.proj[i] = rng.NormFloat64()
		}
	case ProjBipolar:
		for i := range e.proj {
			if rng.Int63()&1 == 0 {
				e.proj[i] = 1
			} else {
				e.proj[i] = -1
			}
		}
		e.packed, _ = hdc.PackSignsFlat(e.proj, nFeatures, dim)
	default:
		return nil, fmt.Errorf("encoding: unknown projection kind %d", kind)
	}
	e.center = make([]float64, dim)
	for j := range e.bias {
		e.bias[j] = rng.Float64() * 2 * math.Pi
		e.center[j] = -math.Sin(e.bias[j]) / 2
	}
	return e, nil
}

// Dim returns the hyperdimensional size D.
func (e *Nonlinear) Dim() int { return e.dim }

// Features returns the expected input dimensionality n.
func (e *Nonlinear) Features() int { return e.features }

// Bandwidth returns the kernel bandwidth.
func (e *Nonlinear) Bandwidth() float64 { return e.bandwidth }

// Base returns the k-th base hypervector B_k (a copy).
func (e *Nonlinear) Base(k int) hdc.Vector {
	v := make(hdc.Vector, e.dim)
	copy(v, e.proj[k*e.dim:(k+1)*e.dim])
	return v
}

// project computes F·B_j for every j into out (length dim). When the
// projection is bipolar it runs as the bit-packed sign-selected add/sub
// kernel (hdc.SignMatrix.ProjectAccum) — zero float multiplies and 64× less
// projection-matrix traffic — and falls back to the dense multiply-add
// otherwise. Both kernels charge the identical Counter ops (the dense
// form), so the hwmodel cost estimates do not depend on which one ran.
func (e *Nonlinear) project(ctr *hdc.Counter, out []float64, x []float64) {
	if e.packed != nil {
		e.packed.ProjectAccum(ctr, out, x)
		return
	}
	hdc.ProjectDense(ctr, out, x, e.proj)
}

// getBuf returns a pooled D-length projection scratch buffer.
func (e *Nonlinear) getBuf() []float64 {
	if v := e.pool.Get(); v != nil {
		return *(v.(*[]float64))
	}
	return make([]float64, e.dim)
}

// putBuf returns a scratch buffer to the pool.
func (e *Nonlinear) putBuf(b []float64) { e.pool.Put(&b) }

// nonlinearize applies the Eq. 1 trigonometric nonlinearity in place over
// the projection values: h_j ← cos(p_j + b_j)·sin(p_j) with p_j = h_j/bw,
// computed through the product-to-sum identity
//
//	cos(p + b)·sin(p) = ½·sin(2p + b) − ½·sin(b)
//
// whose second term is the precomputed per-dimension center_j = −½·sin(b_j):
// one trig evaluation per dimension instead of two. The op accounting stays
// the canonical Eq. 1 form (two trig evaluations) by the hwmodel cost
// contract — the identity is a software shortcut, not a cheaper algorithm
// for the hardware targets.
func (e *Nonlinear) nonlinearize(ctr *hdc.Counter, h []float64) {
	inv := 1 / e.bandwidth
	for j, p := range h {
		p *= inv
		h[j] = 0.5*math.Sin(2*p+e.bias[j]) + e.center[j]
	}
	d := uint64(e.dim)
	ctr.Add(hdc.OpExp, 2*d) // cos + sin of the canonical form
	ctr.Add(hdc.OpFloatAdd, d)
	ctr.Add(hdc.OpFloatMul, d)
	ctr.Add(hdc.OpMemWrite, d)
}

// quantizeInto writes the centered-sign quantization S_j = sign(raw_j −
// center_j) into dst (dst may alias raw for in-place quantization).
func (e *Nonlinear) quantizeInto(ctr *hdc.Counter, dst, raw []float64) {
	for j, v := range raw {
		if v >= e.center[j] {
			dst[j] = 1
		} else {
			dst[j] = -1
		}
	}
	ctr.Add(hdc.OpCmp, uint64(e.dim))
}

// bipolarize fuses nonlinearize and quantizeInto into one in-place pass over
// a projection: h_j ← sign(½·sin(2p_j + b_j) + center_j − center_j) as ±1.
// The raw Eq. 1 value is computed with the exact expression nonlinearize
// stores and compared against center_j the way quantizeInto compares, just
// without materializing the intermediate — on amd64 the intermediate is the
// same 64-bit double whether it round-trips through memory or not, so the
// sign decisions are bit-identical to the two-pass path. One pass instead of
// two halves the memory traffic over h, which is most of what the two-pass
// form spends once the trig is L1-resident (see docs/PERFORMANCE.md "Flat
// spots"). Charges are the sum of the two passes it replaces.
func (e *Nonlinear) bipolarize(ctr *hdc.Counter, h []float64) {
	inv := 1 / e.bandwidth
	bias, center := e.bias, e.center
	for j, p := range h {
		p *= inv
		if 0.5*math.Sin(2*p+bias[j])+center[j] >= center[j] {
			h[j] = 1
		} else {
			h[j] = -1
		}
	}
	d := uint64(e.dim)
	ctr.Add(hdc.OpExp, 2*d) // cos + sin of the canonical form
	ctr.Add(hdc.OpFloatAdd, d)
	ctr.Add(hdc.OpFloatMul, d)
	ctr.Add(hdc.OpMemWrite, d)
	ctr.Add(hdc.OpCmp, d)
}

// EncodeInto implements Encoder for the Eq. 1 map. The projection F·B runs
// once into the first requested output (pooled scratch for packed alone);
// what follows depends on the outputs requested:
//
//   - raw: nonlinearize into raw, then quantizeInto for S (into bipolar, or
//     into pooled scratch when only packed needs it);
//   - bipolar without raw: the fused bipolarize pass, never materializing H;
//   - packed alone: each H_j is thresholded straight into the destination
//     words, never materializing S.
//
// S is the centered sign. The Eq. 1 product expands to
// H_j = ½·sin(2·F·B_j + b_j) − ½·sin(b_j); the second term is a constant
// shared by every input, so quantizing the raw value at zero would bias
// dimension j the same way for all inputs and leave unrelated encodings
// correlated. We therefore quantize relative to that per-dimension
// constant — S_j = sign(H_j − center_j) = sign(sin(2F·B_j+b_j)) — which
// keeps unrelated inputs nearly orthogonal while preserving the
// local-similarity structure. All three routes decide on the same 64-bit
// H_j, so their bits agree, and each charges what the materializing path
// (nonlinearize, quantizeInto, hdc.PackInto) charges for the same outputs.
func (e *Nonlinear) EncodeInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector, packed *hdc.Binary) error {
	if err := checkEncode(e.dim, e.features, x, raw, bipolar, packed); err != nil {
		return err
	}
	switch {
	case raw != nil:
		e.project(ctr, raw, x)
		e.nonlinearize(ctr, raw)
		if bipolar == nil && packed != nil {
			buf := e.getBuf()
			defer e.putBuf(buf)
			bipolar = buf
		}
		if bipolar != nil {
			e.quantizeInto(ctr, bipolar, raw)
		}
	case bipolar != nil:
		e.project(ctr, bipolar, x)
		e.bipolarize(ctr, bipolar)
	case packed != nil:
		e.encodePacked(ctr, x, packed)
		return nil
	}
	if packed != nil {
		hdc.PackInto(ctr, packed, bipolar)
	}
	return nil
}

// Encode returns the raw hypervector H of x in a fresh vector.
func (e *Nonlinear) Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	return encodeRaw(e, ctr, x)
}

// encodePacked encodes x straight into a bit-packed hypervector: the
// projection lands in pooled scratch and each component is thresholded
// against center_j directly into the destination words, never
// materializing the intermediate ±1 float vector. Bits are identical to
// packing bipolarize's output — both set bit j exactly when H_j >= center_j
// — and the op charges equal that materializing path's (nonlinearize +
// quantizeInto + hdc.PackInto), keeping the hwmodel cost contract.
func (e *Nonlinear) encodePacked(ctr *hdc.Counter, x []float64, dst *hdc.Binary) {
	buf := e.getBuf()
	defer e.putBuf(buf)
	e.project(ctr, buf, x)
	inv := 1 / e.bandwidth
	words := dst.Words
	for w := range words {
		words[w] = 0
	}
	for j, p := range buf {
		p *= inv
		// The same identity-form H_j the materializing path computes, so the
		// threshold decision is bit-identical to quantizeInto's.
		if 0.5*math.Sin(2*p+e.bias[j])+e.center[j] >= e.center[j] {
			words[j/64] |= 1 << uint(j%64)
		}
	}
	d := uint64(e.dim)
	ctr.Add(hdc.OpExp, 2*d)
	ctr.Add(hdc.OpFloatAdd, d)
	ctr.Add(hdc.OpFloatMul, d)
	ctr.Add(hdc.OpMemWrite, d)
	ctr.Add(hdc.OpCmp, 2*d)
	ctr.Add(hdc.OpMemRead, d)
	ctr.Add(hdc.OpMemWrite, uint64(len(words)))
}
