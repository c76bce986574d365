package core

import (
	"bytes"
	"errors"
	"fmt"

	"reghd/internal/hdc"
	"reghd/internal/wire"
)

// This file is the wire form of Delta: a versioned, deterministic binary
// encoding that a replication transport ships between serving replicas
// (internal/repl). gob would work, but deltas are the steady-state traffic
// of a replica fleet, so the format is hand-rolled: fixed little-endian
// layout (no reflection, no type dictionaries), byte-for-byte deterministic
// for a given delta (equal deltas encode to equal bytes, which lets
// transports deduplicate and tests fingerprint payloads), and framed by
// internal/wire, whose CRC makes a flipped bit in flight surface as
// ErrCorruptDelta instead of a silently poisoned merge. Model checkpoints
// (serialize.go) use the same frame.

// ErrCorruptDelta is the sentinel wrapped by DecodeDelta when a payload
// cannot be decoded into a structurally valid delta — truncation, a flipped
// bit (CRC mismatch), an unknown version, or counts that disagree with the
// payload size. Callers match it with errors.Is to distinguish a damaged
// delta (drop it and request a resend) from a transport error, mirroring
// ErrCorruptModel on the checkpoint path.
var ErrCorruptDelta = errors.New("core: corrupt delta payload")

// deltaWire* are the frame constants of the delta wire format.
const (
	// deltaWireMagic opens every encoded delta ("RegHD delta wire").
	deltaWireMagic = "RHdw"
	// deltaWireVersion is the current layout version. Decoders reject
	// other versions rather than guessing at field layouts.
	deltaWireVersion = 1
	// deltaWireMaxDim and deltaWireMaxVecs bound the header counts a
	// decoder will trust before sizing the payload, so a corrupt length
	// field cannot demand an absurd allocation.
	deltaWireMaxDim  = 1 << 24
	deltaWireMaxVecs = 1 << 16
)

// deltaFormat is the frame (internal/wire) every encoded delta travels in.
var deltaFormat = wire.Format{Magic: deltaWireMagic, Version: deltaWireVersion, Name: "delta payload"}

// wireDim returns the common vector dimensionality of the delta (0 for a
// delta with no vectors) and validates that every vector and shadow agrees
// on it.
func (d *Delta) wireDim() (int, error) {
	dim := 0
	check := func(n int) error {
		if dim == 0 {
			dim = n
		}
		if n != dim {
			return fmt.Errorf("core: delta vectors disagree on dimension: %d vs %d", n, dim)
		}
		return nil
	}
	for _, v := range d.Models {
		if err := check(len(v)); err != nil {
			return 0, err
		}
	}
	for _, v := range d.Clusters {
		if err := check(len(v)); err != nil {
			return 0, err
		}
	}
	for _, b := range d.ModelsBin {
		if b == nil {
			return 0, errors.New("core: delta has nil binary model shadow")
		}
		if err := check(b.Dim); err != nil {
			return 0, err
		}
	}
	for _, b := range d.ClustersBin {
		if b == nil {
			return 0, errors.New("core: delta has nil binary cluster shadow")
		}
		if err := check(b.Dim); err != nil {
			return 0, err
		}
	}
	return dim, nil
}

// Encode serializes the delta into the versioned binary wire format decoded
// by DecodeDelta. The encoding is deterministic: equal deltas produce equal
// bytes. It fails only on structurally inconsistent deltas (vectors of
// mixed dimensionality, nil shadows).
func (d *Delta) Encode() ([]byte, error) {
	if d == nil {
		return nil, errors.New("core: nil delta")
	}
	dim, err := d.wireDim()
	if err != nil {
		return nil, err
	}
	counts := []int{len(d.Models), len(d.Clusters), len(d.AssignN), len(d.ModelsBin), len(d.ModelScale), len(d.ClustersBin)}
	for _, n := range counts {
		if n > deltaWireMaxVecs {
			return nil, fmt.Errorf("core: delta section of %d entries exceeds wire limit %d", n, deltaWireMaxVecs)
		}
	}
	if dim > deltaWireMaxDim {
		return nil, fmt.Errorf("core: delta dimension %d exceeds wire limit %d", dim, deltaWireMaxDim)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, deltaFormat)
	w.U32(uint32(dim))
	w.U64(d.Samples)
	w.F64(d.CalibA)
	w.F64(d.CalibB)
	for _, n := range counts {
		w.U32(uint32(n))
	}
	w.U32(uint32(hdc.NumOps))
	for _, v := range d.Models {
		w.Floats(v)
	}
	for _, v := range d.Clusters {
		w.Floats(v)
	}
	w.Words(d.AssignN)
	ops := d.Ops.Snapshot()
	w.Words(ops[:])
	for _, b := range d.ModelsBin {
		w.Words(b.Words)
	}
	w.Floats(d.ModelScale)
	for _, b := range d.ClustersBin {
		w.Words(b.Words)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readShadows reads n bit-packed binary vectors of dimension dim into one
// word slab, enforcing the zero-tail-bits invariant the Hamming kernels
// rely on. Nil for n == 0.
func readShadows(r *wire.Reader, n, dim int) []*hdc.Binary {
	words := (dim + 63) / 64
	slab := r.Words(n * words)
	if n == 0 || len(slab) < n*words {
		return nil
	}
	bs := make([]*hdc.Binary, n)
	for i := range bs {
		ws := slab[i*words : (i+1)*words : (i+1)*words]
		if tail := dim % 64; tail != 0 && ws[words-1]>>uint(tail) != 0 {
			r.Fail("binary vector %d has bits set past dimension %d", i, dim)
			return nil
		}
		bs[i] = &hdc.Binary{Words: ws, Dim: dim}
	}
	return bs
}

// DecodeDelta parses a payload produced by Delta.Encode. Any structural
// damage — truncation, trailing garbage, counts that disagree with the
// payload size, an unknown version, a checksum mismatch — returns an error
// wrapping ErrCorruptDelta; a nil error guarantees the delta is shaped
// consistently (all vectors share one dimensionality, shadow tail bits are
// zero). The returned delta owns its memory.
func DecodeDelta(data []byte) (*Delta, error) {
	d, err := decodeDelta(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptDelta, err)
	}
	return d, nil
}

func decodeDelta(data []byte) (*Delta, error) {
	r, err := wire.NewReader(bytes.NewReader(data), int64(len(data)), deltaFormat)
	if err != nil {
		return nil, err
	}
	dim := r.Count(deltaWireMaxDim)
	d := &Delta{Samples: r.U64(), CalibA: r.F64(), CalibB: r.F64()}
	nModels := r.Count(deltaWireMaxVecs)
	nClusters := r.Count(deltaWireMaxVecs)
	nAssign := r.Count(deltaWireMaxVecs)
	nModelsBin := r.Count(deltaWireMaxVecs)
	nScales := r.Count(deltaWireMaxVecs)
	nClustersBin := r.Count(deltaWireMaxVecs)
	nOps := r.Count(int(hdc.NumOps))
	if r.Err() != nil || nOps != int(hdc.NumOps) {
		return nil, r.Fail("malformed section header")
	}
	// The header fully determines the payload size; reject any disagreement
	// before allocating the sections.
	words := (dim + 63) / 64
	want := 8*int64(nModels+nClusters)*int64(dim) + 8*int64(nAssign) + 8*int64(nOps) +
		8*int64(nModelsBin+nClustersBin)*int64(words) + 8*int64(nScales)
	if want != r.Left() {
		return nil, r.Fail("header promises %d payload bytes, have %d", want, r.Left())
	}
	d.Models = hdc.Rows(r.Floats(nModels*dim), nModels, dim)
	d.Clusters = hdc.Rows(r.Floats(nClusters*dim), nClusters, dim)
	d.AssignN = r.Words(nAssign)
	for op, n := range r.Words(nOps) {
		d.Ops.Add(hdc.Op(op), n)
	}
	d.ModelsBin = readShadows(r, nModelsBin, dim)
	d.ModelScale = r.Floats(nScales)
	d.ClustersBin = readShadows(r, nClustersBin, dim)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return d, nil
}
