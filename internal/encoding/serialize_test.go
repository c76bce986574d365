package encoding

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"reghd/internal/wire"
)

// The tests below keep their historical "Gob" names: checkpoints still use
// the .gob file extension, but the encoder section they cover is the
// framed one of serialize.go.

// testFormat frames encoder sections on their own.
var testFormat = wire.Format{Magic: "RHte", Version: 1, Name: "encoder test frame"}

// frame writes one test frame whose body is written by body.
func frame(t *testing.T, body func(w *wire.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, testFormat)
	if err := body(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads the encoder section framed in data.
func decode(data []byte) (Encoder, error) {
	r, err := wire.NewReader(bytes.NewReader(data), int64(len(data)), testFormat)
	if err != nil {
		return nil, err
	}
	e, err := ReadEncoder(r)
	if err != nil {
		return nil, err
	}
	return e, r.Close()
}

// roundTrip writes e's section and reads it back.
func roundTrip(t *testing.T, e Encoder) Encoder {
	t.Helper()
	back, err := decode(frame(t, func(w *wire.Writer) error { return WriteEncoder(w, e) }))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// sameEncoding asserts that a and b produce Float64bits-identical raw and
// bipolar encodings of x.
func sameEncoding(t *testing.T, a, b Encoder, x []float64) {
	t.Helper()
	if a.Dim() != b.Dim() || a.Features() != b.Features() {
		t.Fatalf("restored shape %d/%d, want %d/%d", b.Dim(), b.Features(), a.Dim(), a.Features())
	}
	for _, enc := range []func(Encoder) ([]float64, error){
		func(e Encoder) ([]float64, error) { return e.Encode(nil, x) },
		func(e Encoder) ([]float64, error) { return Bipolar(e, nil, x) },
	} {
		ha, err := enc(a)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := enc(b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ha {
			if math.Float64bits(ha[j]) != math.Float64bits(hb[j]) {
				t.Fatalf("restored encoder differs at component %d: %v vs %v", j, ha[j], hb[j])
			}
		}
	}
}

func TestNonlinearGobRoundTrip(t *testing.T) {
	e1, err := NewNonlinearBandwidth(rand.New(rand.NewSource(1)), 5, 300, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	e2 := roundTrip(t, e1).(*Nonlinear)
	if e2.Bandwidth() != 1.5 {
		t.Fatalf("restored bandwidth %v", e2.Bandwidth())
	}
	sameEncoding(t, e1, e2, []float64{0.1, -0.2, 0.3, 0.4, -0.5})
}

// wantCorrupt asserts that decoding data fails with wire.ErrCorrupt.
func wantCorrupt(t *testing.T, name string, data []byte) {
	t.Helper()
	if _, err := decode(data); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("%s: got %v, want wire.ErrCorrupt", name, err)
	}
}

func TestNonlinearGobRejectsCorrupt(t *testing.T) {
	nonlinear := func(features, dim uint32, bw float64, values int) []byte {
		return frame(t, func(w *wire.Writer) error {
			w.U8(kindNonlinear)
			w.U32(features)
			w.U32(dim)
			w.F64(bw)
			w.Floats(make([]float64, values))
			return nil
		})
	}
	wantCorrupt(t, "garbage", []byte("garbage"))
	wantCorrupt(t, "short tables", nonlinear(2, 10, 1, 25))
	wantCorrupt(t, "long tables", nonlinear(2, 10, 1, 35))
	wantCorrupt(t, "zero dim", nonlinear(2, 0, 1, 0))
	wantCorrupt(t, "zero bandwidth", nonlinear(2, 10, 0, 30))
	wantCorrupt(t, "NaN bandwidth", nonlinear(2, 10, math.NaN(), 30))
	wantCorrupt(t, "oversized shape", nonlinear(1<<24, 1<<24, 1, 0))
	wantCorrupt(t, "unknown kind", frame(t, func(w *wire.Writer) error { w.U8(9); return nil }))
	if _, err := decode(nonlinear(2, 10, 1, 30)); err != nil {
		t.Fatalf("well-formed section rejected: %v", err)
	}
}

func TestIDLevelGobRoundTrip(t *testing.T) {
	e1, err := NewIDLevel(rand.New(rand.NewSource(2)), 3, 200, 8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2 := roundTrip(t, e1).(*IDLevel)
	if e2.Levels() != 8 {
		t.Fatalf("restored %d levels", e2.Levels())
	}
	sameEncoding(t, e1, e2, []float64{0.2, -0.7, 0.9})
}

func TestIDLevelGobRejectsCorrupt(t *testing.T) {
	idLevel := func(levels uint32, lo, hi float64) []byte {
		return frame(t, func(w *wire.Writer) error {
			w.U8(kindIDLevel)
			w.U32(2)
			w.U32(10)
			w.U32(levels)
			w.F64(lo)
			w.F64(hi)
			w.Floats(make([]float64, (2+int(levels))*10))
			return nil
		})
	}
	wantCorrupt(t, "garbage", []byte("junk"))
	wantCorrupt(t, "single level", idLevel(1, 0, 1))
	wantCorrupt(t, "empty range", idLevel(4, 1, 1))
	good := idLevel(4, 0, 1)
	if _, err := decode(good); err != nil {
		t.Fatalf("well-formed section rejected: %v", err)
	}
	wantCorrupt(t, "truncated", good[:len(good)-9])
}

// TestEncoderInterfaceGobRoundTrip covers the Sequence section, which
// nests its base encoder's, and the bounds on that nesting.
func TestEncoderInterfaceGobRoundTrip(t *testing.T) {
	base, err := NewNonlinearProjection(rand.New(rand.NewSource(3)), 2, 128, 1, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSequence(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, seq).(*Sequence)
	if back.Window() != 3 {
		t.Fatalf("restored window %d", back.Window())
	}
	if back.base.(*Nonlinear).packed == nil {
		t.Fatal("nested bipolar base lost its packed projection")
	}
	sameEncoding(t, seq, back, []float64{0.1, 0.2, -0.3, 0.4, 0.5, -0.6})

	nested := func(depth int, window uint32) []byte {
		return frame(t, func(w *wire.Writer) error {
			for i := 0; i < depth; i++ {
				w.U8(kindSequence)
				w.U32(window)
			}
			return WriteEncoder(w, base)
		})
	}
	if _, err := decode(nested(maxNesting, 1)); err != nil {
		t.Fatalf("nesting depth %d rejected: %v", maxNesting, err)
	}
	wantCorrupt(t, "too deep", nested(maxNesting+1, 1))
	wantCorrupt(t, "zero window", nested(1, 0))

	if err := WriteEncoder(wire.NewWriter(io.Discard, testFormat), nil); err == nil {
		t.Fatal("nil encoder written")
	}
}
