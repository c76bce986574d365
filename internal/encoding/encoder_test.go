package encoding

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

// allEncoders returns one encoder of every kind over 4 input features at
// D=200.
func allEncoders(t *testing.T) map[string]Encoder {
	t.Helper()
	gauss, err := NewNonlinear(rand.New(rand.NewSource(31)), 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	bip, err := NewNonlinearProjection(rand.New(rand.NewSource(32)), 4, 200, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	idl, err := NewIDLevel(rand.New(rand.NewSource(33)), 4, 200, 16, -2, 2)
	if err != nil {
		t.Fatal(err)
	}
	step, err := NewNonlinear(rand.New(rand.NewSource(34)), 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSequence(step, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Encoder{"nonlinear-gaussian": gauss, "nonlinear-bipolar": bip, "idlevel": idl, "sequence": seq}
}

// TestEncodeIntoContract holds every encoder to the EncodeInto contract:
// each requested output carries the same bits whichever other outputs are
// requested alongside it; packed is S bit-packed; Encode and Bipolar are
// EncodeInto with one output; and requesting packed adds exactly
// hdc.PackInto's charge to the same request with S in place of packed.
func TestEncodeIntoContract(t *testing.T) {
	x := []float64{0.4, -1.3, 0.8, 0.1}
	for name, e := range allEncoders(t) {
		d := e.Dim()
		type outs struct {
			raw, s hdc.Vector
			packed *hdc.Binary
			ctr    hdc.Counter
		}
		run := func(mask int) outs {
			var o outs
			if mask&1 != 0 {
				o.raw = hdc.NewVector(d)
			}
			if mask&2 != 0 {
				o.s = hdc.NewVector(d)
			}
			if mask&4 != 0 {
				o.packed = hdc.NewBinary(d)
			}
			if err := e.EncodeInto(&o.ctr, x, o.raw, o.s, o.packed); err != nil {
				t.Fatalf("%s mask=%03b: %v", name, mask, err)
			}
			return o
		}
		full := run(7)
		if !full.s.IsBipolar() {
			t.Fatalf("%s: S is not bipolar", name)
		}
		if ref := hdc.Pack(nil, full.s); !full.packed.Equal(ref) {
			t.Fatalf("%s: packed is not S bit-packed", name)
		}
		for mask := 1; mask < 8; mask++ {
			o := run(mask)
			for j := range o.raw {
				if math.Float64bits(o.raw[j]) != math.Float64bits(full.raw[j]) {
					t.Fatalf("%s mask=%03b: raw[%d] differs", name, mask, j)
				}
			}
			for j := range o.s {
				if o.s[j] != full.s[j] {
					t.Fatalf("%s mask=%03b: S[%d] differs", name, mask, j)
				}
			}
			if o.packed != nil && !o.packed.Equal(full.packed) {
				t.Fatalf("%s mask=%03b: packed differs", name, mask)
			}
			if mask&4 != 0 {
				want := run(mask&^4 | 2).ctr
				hdc.PackInto(&want, hdc.NewBinary(d), full.s)
				if o.ctr != want {
					t.Fatalf("%s mask=%03b: charged %v, want %v", name, mask, &o.ctr, &want)
				}
			}
		}

		var cRaw, cS hdc.Counter
		h, err := e.Encode(&cRaw, x)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Bipolar(e, &cS, x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range h {
			if math.Float64bits(h[j]) != math.Float64bits(full.raw[j]) || s[j] != full.s[j] {
				t.Fatalf("%s: Encode/Bipolar differ from EncodeInto at %d", name, j)
			}
		}
		if cRaw != run(1).ctr || cS != run(2).ctr {
			t.Fatalf("%s: Encode/Bipolar charges differ from EncodeInto", name)
		}
		if _, err := Bipolar(e, nil, x[:3]); err == nil {
			t.Fatalf("%s: Bipolar accepted a wrong-length input", name)
		}
	}
}
