package encoding

import (
	"fmt"

	"reghd/internal/hdc"
)

// Sequence encodes a sliding window of W time steps, each an n-feature
// vector, into a single hypervector: every step is encoded with a shared
// base encoder and rotated by its position before bundling,
//
//	H = Σ_t ρ^t(E(x_t))
//
// the classic HD n-gram construction. Rotation (cyclic permutation) makes
// the encoding order-sensitive — the same step content at a different lag
// lands in a nearly orthogonal subspace — while bundling keeps it similar
// to windows that agree at most positions. Sequence satisfies Encoder over
// the flattened window (Features() = W·n), so it composes directly with
// the RegHD model for time-series forecasting, the IoT workload the
// paper's introduction motivates.
type Sequence struct {
	base   Encoder
	window int
}

// NewSequence wraps a per-step encoder into a window encoder.
func NewSequence(base Encoder, window int) (*Sequence, error) {
	if base == nil {
		return nil, fmt.Errorf("encoding: nil base encoder")
	}
	if window < 1 {
		return nil, fmt.Errorf("encoding: window must be >= 1, got %d", window)
	}
	return &Sequence{base: base, window: window}, nil
}

// Dim returns the hyperdimensional size D.
func (e *Sequence) Dim() int { return e.base.Dim() }

// Features returns the flattened input size W·n.
func (e *Sequence) Features() int { return e.window * e.base.Features() }

// Window returns the number of time steps W.
func (e *Sequence) Window() int { return e.window }

// EncodeInto implements Encoder over the flattened window: each step's S
// is rotated by its lag and bundled into H (into raw, else into bipolar or
// fresh scratch), then S = sign(H) through hdc.SignInto and packed holds S
// bit-packed. The per-step encodes allocate; Sequence is not on a serving
// or training hot path.
func (e *Sequence) EncodeInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector, packed *hdc.Binary) error {
	if len(x) != e.Features() {
		return fmt.Errorf("encoding: window input has %d values, want %d (%d steps × %d features)",
			len(x), e.Features(), e.window, e.base.Features())
	}
	if err := checkEncode(e.Dim(), e.Features(), x, raw, bipolar, packed); err != nil {
		return err
	}
	if raw == nil && bipolar == nil && packed == nil {
		return nil
	}
	h := raw
	if h == nil {
		h = bipolar
	}
	if h == nil {
		h = hdc.NewVector(e.Dim())
	}
	h.Zero()
	n := e.base.Features()
	for t := 0; t < e.window; t++ {
		step, err := Bipolar(e.base, ctr, x[t*n:(t+1)*n])
		if err != nil {
			return fmt.Errorf("encoding: window step %d: %w", t, err)
		}
		hdc.Add(ctr, h, hdc.Permute(ctr, step, t))
	}
	if bipolar == nil && packed == nil {
		return nil
	}
	s := bipolar
	if s == nil {
		s = h
		if raw != nil {
			s = hdc.NewVector(e.Dim())
		}
	}
	hdc.SignInto(ctr, s, h)
	if packed != nil {
		hdc.PackInto(ctr, packed, s)
	}
	return nil
}

// Encode returns the bundled window hypervector H in a fresh vector.
func (e *Sequence) Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	return encodeRaw(e, ctr, x)
}
