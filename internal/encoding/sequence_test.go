package encoding

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

func seqBase(t *testing.T, feats, dim int) Encoder {
	t.Helper()
	e, err := NewNonlinearBandwidth(rand.New(rand.NewSource(21)), feats, dim, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewSequenceValidation(t *testing.T) {
	base := seqBase(t, 2, 128)
	if _, err := NewSequence(nil, 3); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewSequence(base, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	s, err := NewSequence(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 128 || s.Features() != 8 || s.Window() != 4 {
		t.Fatalf("accessors wrong: D=%d n=%d W=%d", s.Dim(), s.Features(), s.Window())
	}
}

func TestSequenceInputLengthChecked(t *testing.T) {
	s, _ := NewSequence(seqBase(t, 2, 128), 3)
	if _, err := s.Encode(nil, make([]float64, 5)); err == nil {
		t.Fatal("wrong window length accepted")
	}
	if _, err := Bipolar(s, nil, make([]float64, 7)); err == nil {
		t.Fatal("bipolar accepted wrong length")
	}
	if _, err := packedOf(s, nil, make([]float64, 1)); err == nil {
		t.Fatal("binary accepted wrong length")
	}
}

func TestSequenceOrderSensitive(t *testing.T) {
	// Swapping two window steps must change the encoding substantially,
	// while the identical window stays identical.
	s, _ := NewSequence(seqBase(t, 1, 8000), 2)
	a := []float64{0.3, -0.8}
	swapped := []float64{-0.8, 0.3}
	ha, _ := Bipolar(s, nil, a)
	hb, _ := Bipolar(s, nil, append([]float64(nil), a...))
	hs, _ := Bipolar(s, nil, swapped)
	if math.Abs(hdc.Cosine(nil, ha, hb)-1) > 1e-12 {
		t.Fatal("identical windows should encode identically")
	}
	if c := hdc.Cosine(nil, ha, hs); c > 0.5 {
		t.Fatalf("swapped window too similar: %v", c)
	}
}

func TestSequenceSimilarityPreserving(t *testing.T) {
	// Windows that agree on most steps stay similar.
	s, _ := NewSequence(seqBase(t, 1, 8000), 4)
	base := []float64{0.1, -0.2, 0.5, 0.9}
	near := []float64{0.1, -0.2, 0.5, 0.85}
	far := []float64{-0.9, 0.8, -0.5, -0.1}
	hb, _ := Bipolar(s, nil, base)
	hn, _ := Bipolar(s, nil, near)
	hf, _ := Bipolar(s, nil, far)
	if hdc.Cosine(nil, hb, hn) <= hdc.Cosine(nil, hb, hf) {
		t.Fatal("sequence encoding not similarity preserving")
	}
	if hdc.Cosine(nil, hb, hn) < 0.5 {
		t.Fatalf("one-step change lost too much similarity: %v", hdc.Cosine(nil, hb, hn))
	}
}

func TestSequenceBinaryMatchesBipolar(t *testing.T) {
	s, _ := NewSequence(seqBase(t, 2, 300), 3)
	x := []float64{0.1, 0.2, -0.3, 0.4, 0.5, -0.6}
	bip, err := Bipolar(s, nil, x)
	if err != nil {
		t.Fatal(err)
	}
	bin, _ := packedOf(s, nil, x)
	dense := hdc.Unpack(bin)
	for j := range bip {
		if bip[j] != dense[j] {
			t.Fatalf("component %d differs", j)
		}
	}
	raw, bip2 := hdc.NewVector(s.Dim()), hdc.NewVector(s.Dim())
	if err := s.EncodeInto(nil, x, raw, bip2, nil); err != nil {
		t.Fatal(err)
	}
	for j := range bip2 {
		want := 1.0
		if raw[j] < 0 {
			want = -1
		}
		if bip2[j] != want {
			t.Fatal("EncodeInto bipolar is not sign of raw")
		}
	}
}

func TestSequenceWindowOneMatchesBase(t *testing.T) {
	base := seqBase(t, 3, 500)
	s, _ := NewSequence(base, 1)
	x := []float64{0.4, -0.1, 0.7}
	want, _ := Bipolar(base, nil, x)
	got, _ := Bipolar(s, nil, x)
	if math.Abs(hdc.Cosine(nil, want, got)-1) > 1e-12 {
		t.Fatal("window-1 sequence should match the base encoder")
	}
}
