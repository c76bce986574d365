package encoding

import (
	"fmt"

	"reghd/internal/hdc"
)

// Encoder is the contract every RegHD encoder satisfies: a similarity-
// preserving map x ↦ H from n-dimensional feature vectors into
// D-dimensional hyperspace, whose sign quantization is the bipolar S and
// whose bit-packed form is S^b.
type Encoder interface {
	// Dim returns the hyperdimensional size D.
	Dim() int
	// Features returns the expected input dimensionality n.
	Features() int
	// EncodeInto encodes x in one pass and writes whichever outputs are
	// non-nil: the raw hypervector H into raw, the sign-quantized
	// S ∈ {−1,+1}^D into bipolar, and S bit-packed into packed (bit j set
	// exactly where S_j = +1). Each non-nil output must have dimension D.
	//
	// Op charges depend only on which outputs are requested: H's encode
	// cost; the quantization to S whenever bipolar or packed is requested;
	// and hdc.PackInto's charge on top when packed is.
	EncodeInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector, packed *hdc.Binary) error
	// Encode returns H in a fresh vector: EncodeInto with only raw
	// requested. It is the allocating convenience the end-to-end benchmark
	// module times encode with; everything in this module encodes through
	// EncodeInto.
	Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error)
}

var (
	_ Encoder = (*Nonlinear)(nil)
	_ Encoder = (*IDLevel)(nil)
	_ Encoder = (*Sequence)(nil)
)

// Bipolar returns the sign-quantized hypervector S of x in a fresh vector,
// for callers that keep one encoding per row.
func Bipolar(enc Encoder, ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	s := hdc.NewVector(enc.Dim())
	if err := enc.EncodeInto(ctr, x, nil, s, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeRaw is the shared body of every encoder's Encode.
func encodeRaw(enc Encoder, ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	h := hdc.NewVector(enc.Dim())
	if err := enc.EncodeInto(ctr, x, h, nil, nil); err != nil {
		return nil, err
	}
	return h, nil
}

// checkEncode validates the arguments of an EncodeInto call against an
// encoder of the given shape.
func checkEncode(dim, features int, x []float64, raw, bipolar hdc.Vector, packed *hdc.Binary) error {
	if len(x) != features {
		return fmt.Errorf("encoding: input has %d features, encoder expects %d", len(x), features)
	}
	for _, v := range [...]hdc.Vector{raw, bipolar} {
		if v != nil && len(v) != dim {
			return fmt.Errorf("encoding: destination has dim %d, encoder produces %d", len(v), dim)
		}
	}
	if packed != nil && (packed.Dim != dim || len(packed.Words) != (dim+63)/64) {
		return fmt.Errorf("encoding: packed destination has dim %d, encoder produces %d", packed.Dim, dim)
	}
	return nil
}
