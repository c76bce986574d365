package hdc

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned or wrapped when two hypervectors of
// different dimensionality are combined.
var ErrDimensionMismatch = errors.New("hdc: dimension mismatch")

// Vector is a dense hypervector with float64 components. It is used for
// integer/full-precision models (the paper's "integer" hypervectors carry
// accumulated magnitudes; float64 subsumes them without overflow concerns)
// and for the raw, pre-quantization output of the nonlinear encoder.
type Vector []float64

// NewVector returns a zero hypervector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Dim reports the dimensionality of the hypervector.
func (v Vector) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Zero resets all components to 0 in place.
//
//lint:nocount scratch (re)initialization helper; the counted kernels charge their own memory writes
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the dot product v·w, counting one float multiply and one float
// add per component on ctr.
func Dot(ctr *Counter, v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("hdc: Dot dimension mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	d := uint64(len(v))
	ctr.Add(OpFloatMul, d)
	ctr.Add(OpFloatAdd, d)
	ctr.Add(OpMemRead, 2*d)
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(ctr *Counter, v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	d := uint64(len(v))
	ctr.Add(OpFloatMul, d)
	ctr.Add(OpFloatAdd, d)
	ctr.Add(OpFloatDiv, 1) // sqrt
	ctr.Add(OpMemRead, d)
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity v·w / (‖v‖‖w‖). If either vector has
// zero norm the similarity is defined as 0.
func Cosine(ctr *Counter, v, w Vector) float64 {
	dot := Dot(ctr, v, w)
	nv := Norm(ctr, v)
	nw := Norm(ctr, w)
	ctr.Add(OpFloatMul, 1)
	ctr.Add(OpFloatDiv, 1)
	//lint:ignore floatcmp exact zero-norm guard before division (zero-norm similarity is defined as 0)
	if nv == 0 || nw == 0 {
		return 0
	}
	return dot / (nv * nw)
}

// AXPY performs v ← v + a*w in place (the model-update kernel of Eq. 2/7).
func AXPY(ctr *Counter, v Vector, a float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("hdc: AXPY dimension mismatch %d != %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	d := uint64(len(v))
	ctr.Add(OpFloatMul, d)
	ctr.Add(OpFloatAdd, d)
	ctr.Add(OpMemRead, 2*d)
	ctr.Add(OpMemWrite, d)
}

// Scale performs v ← a*v in place.
func Scale(ctr *Counter, v Vector, a float64) {
	for i := range v {
		v[i] *= a
	}
	d := uint64(len(v))
	ctr.Add(OpFloatMul, d)
	ctr.Add(OpMemRead, d)
	ctr.Add(OpMemWrite, d)
}

// Add performs v ← v + w in place.
func Add(ctr *Counter, v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("hdc: Add dimension mismatch %d != %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
	d := uint64(len(v))
	ctr.Add(OpFloatAdd, d)
	ctr.Add(OpMemRead, 2*d)
	ctr.Add(OpMemWrite, d)
}

// L1Norm returns Σ|v_i|, used to derive the per-model scale factor when a
// model hypervector is binarized (QuantHD-style magnitude preservation).
func L1Norm(ctr *Counter, v Vector) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	d := uint64(len(v))
	ctr.Add(OpFloatAdd, d)
	ctr.Add(OpCmp, d)
	ctr.Add(OpMemRead, d)
	return s
}

// Sign returns the bipolar sign vector of v: +1 where v_i >= 0, else -1.
func Sign(ctr *Counter, v Vector) Vector {
	w := make(Vector, len(v))
	SignInto(ctr, w, v)
	return w
}

// SignInto is Sign writing into dst, which must have length len(v) and may
// alias v.
func SignInto(ctr *Counter, dst, v Vector) {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("hdc: SignInto dimension mismatch %d != %d", len(dst), len(v)))
	}
	for i, x := range v {
		if x >= 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
	d := uint64(len(v))
	ctr.Add(OpCmp, d)
	ctr.Add(OpMemRead, d)
	ctr.Add(OpMemWrite, d)
}

// IsBipolar reports whether every component of v is exactly ±1.
//
//lint:nocount validation predicate for tests and serialization checks, off the counted data path
func (v Vector) IsBipolar() bool {
	for _, x := range v {
		//lint:ignore floatcmp bipolarity is defined as exactly-±1 components (the encoder emits exact ±1)
		if x != 1 && x != -1 {
			return false
		}
	}
	return true
}

// CheckDims returns a wrapped ErrDimensionMismatch unless all vectors share
// dimension d.
//
//lint:nocount shape validation, no per-dimension data-path work is charged by the paper's accounting
func CheckDims(d int, vs ...Vector) error {
	for i, v := range vs {
		if len(v) != d {
			return fmt.Errorf("%w: vector %d has dim %d, want %d", ErrDimensionMismatch, i, len(v), d)
		}
	}
	return nil
}

// Rows splits slab into n rows of dimension dim. The rows are
// capacity-capped views sharing the slab's memory, so a store of n vectors
// costs one allocation. Nil when n is 0 or slab holds fewer than n rows.
//
//lint:nocount slices headers over decoded checkpoint state; no vector arithmetic
func Rows(slab []float64, n, dim int) []Vector {
	if n == 0 || len(slab) < n*dim {
		return nil
	}
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return vs
}
