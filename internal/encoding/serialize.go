package encoding

import (
	"fmt"
	"math"

	"reghd/internal/hdc"
	"reghd/internal/wire"
)

// This file is the encoder section of a model checkpoint (the frame is
// internal/core/serialize.go's): a kind byte, the kind's shape fields, then
// its tables as little-endian float64s.
//
//	Nonlinear  features u32, dim u32, bandwidth f64, proj[features·dim], bias[dim]
//	IDLevel    features u32, dim u32, levels u32, lo f64, hi f64, ids[features·dim], lvls[levels·dim]
//	Sequence   window u32, then the base encoder's section
//
// Derived state (the Nonlinear centers and packed projection) is rebuilt on
// read, not stored.

// Encoder section kinds.
const (
	kindNonlinear = 1
	kindIDLevel   = 2
	kindSequence  = 3
)

// Bounds the reader checks shape fields against before sizing anything from
// them: maxShape for dimensions, feature, level and window counts, and
// maxNesting for Sequence-in-Sequence depth.
const (
	maxShape   = 1 << 24
	maxNesting = 8
)

// WriteEncoder writes the checkpoint section of e. It fails for encoder
// types that have no section.
func WriteEncoder(w *wire.Writer, e Encoder) error {
	switch e := e.(type) {
	case *Nonlinear:
		w.U8(kindNonlinear)
		w.U32(uint32(e.features))
		w.U32(uint32(e.dim))
		w.F64(e.bandwidth)
		w.Floats(e.proj)
		w.Floats(e.bias)
	case *IDLevel:
		w.U8(kindIDLevel)
		w.U32(uint32(e.features))
		w.U32(uint32(e.dim))
		w.U32(uint32(e.levels))
		w.F64(e.lo)
		w.F64(e.hi)
		for _, v := range e.ids {
			w.Floats(v)
		}
		for _, v := range e.lvls {
			w.Floats(v)
		}
	case *Sequence:
		w.U8(kindSequence)
		w.U32(uint32(e.window))
		return WriteEncoder(w, e.base)
	default:
		return fmt.Errorf("encoding: %T has no checkpoint section", e)
	}
	return nil
}

// ReadEncoder reads an encoder section written by WriteEncoder. Every
// failure, including a shape no constructor would accept, is latched on r
// as a corruption error and returned.
func ReadEncoder(r *wire.Reader) (Encoder, error) { return readEncoder(r, 0) }

func readEncoder(r *wire.Reader, depth int) (Encoder, error) {
	switch kind := r.U8(); {
	case r.Err() != nil:
		return nil, r.Err()
	case kind == kindNonlinear:
		return readNonlinear(r)
	case kind == kindIDLevel:
		return readIDLevel(r)
	case kind == kindSequence && depth < maxNesting:
		window := r.Count(maxShape)
		base, err := readEncoder(r, depth+1)
		if err != nil {
			return nil, err
		}
		if window < 1 {
			return nil, r.Fail("sequence encoder window %d", window)
		}
		return &Sequence{base: base, window: window}, nil
	default:
		return nil, r.Fail("encoder kind %d at nesting depth %d", kind, depth)
	}
}

func readNonlinear(r *wire.Reader) (Encoder, error) {
	e := &Nonlinear{features: r.Count(maxShape), dim: r.Count(maxShape), bandwidth: r.F64()}
	e.proj = r.Floats(e.features * e.dim)
	e.bias = r.Floats(e.dim)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if e.dim == 0 || e.features == 0 || !(e.bandwidth > 0) {
		return nil, r.Fail("nonlinear encoder shape dim=%d features=%d bandwidth=%v", e.dim, e.features, e.bandwidth)
	}
	e.center = make([]float64, e.dim)
	for j, b := range e.bias {
		e.center[j] = -math.Sin(b) / 2
	}
	// Re-derive the bit-packed projection: when every entry is ±1 (bipolar
	// base hypervectors) the restored encoder runs the same sign-selected
	// add/sub kernel as the one that was saved.
	e.packed, _ = hdc.PackSignsFlat(e.proj, e.features, e.dim)
	return e, nil
}

func readIDLevel(r *wire.Reader) (Encoder, error) {
	e := &IDLevel{features: r.Count(maxShape), dim: r.Count(maxShape), levels: r.Count(maxShape), lo: r.F64(), hi: r.F64()}
	e.ids = hdc.Rows(r.Floats(e.features*e.dim), e.features, e.dim)
	e.lvls = hdc.Rows(r.Floats(e.levels*e.dim), e.levels, e.dim)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if e.dim == 0 || e.features == 0 || e.levels < 2 || !(e.lo < e.hi) {
		return nil, r.Fail("id-level encoder shape dim=%d features=%d levels=%d range=[%v, %v]", e.dim, e.features, e.levels, e.lo, e.hi)
	}
	return e, nil
}
