package encoding

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

func TestNewIDLevelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, d, levels int
		lo, hi       float64
	}{
		{0, 10, 4, 0, 1},
		{3, 0, 4, 0, 1},
		{3, 10, 1, 0, 1},
		{3, 10, 4, 1, 1},
		{3, 10, 4, 2, 1},
	}
	for i, c := range cases {
		if _, err := NewIDLevel(rng, c.n, c.d, c.levels, c.lo, c.hi); err == nil {
			t.Fatalf("case %d: invalid parameters accepted", i)
		}
	}
	e, err := NewIDLevel(rng, 3, 100, 8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 100 || e.Features() != 3 || e.Levels() != 8 {
		t.Fatalf("accessors wrong: %d %d %d", e.Dim(), e.Features(), e.Levels())
	}
}

func TestIDLevelQuantizeClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewIDLevel(rng, 1, 64, 10, 0, 1)
	if e.quantize(-5) != 0 {
		t.Fatal("below-range value should clamp to level 0")
	}
	if e.quantize(99) != 9 {
		t.Fatal("above-range value should clamp to top level")
	}
	if e.quantize(0.55) != 5 {
		t.Fatalf("quantize(0.55) = %d, want 5", e.quantize(0.55))
	}
}

func TestIDLevelAdjacentLevelsSimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, _ := NewIDLevel(rng, 1, 10000, 10, 0, 1)
	adj := hdc.Cosine(nil, e.lvls[4], e.lvls[5])
	extreme := hdc.Cosine(nil, e.lvls[0], e.lvls[9])
	if adj < 0.7 {
		t.Fatalf("adjacent levels similarity %v too low", adj)
	}
	if math.Abs(extreme) > 0.15 {
		t.Fatalf("extreme levels similarity %v, want ≈ 0", extreme)
	}
}

func TestIDLevelSimilarityPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, _ := NewIDLevel(rng, 5, 8000, 32, -2, 2)
	base := []float64{0.1, -0.5, 1.0, 0.0, -1.2}
	near := []float64{0.15, -0.45, 1.05, 0.05, -1.15}
	far := []float64{-1.8, 1.9, -1.5, 1.7, 1.9}
	hb, _ := Bipolar(e, nil, base)
	hn, _ := Bipolar(e, nil, near)
	hf, _ := Bipolar(e, nil, far)
	if hdc.Cosine(nil, hb, hn) <= hdc.Cosine(nil, hb, hf) {
		t.Fatal("ID-level encoding not similarity preserving")
	}
}

func TestIDLevelInputLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, _ := NewIDLevel(rng, 4, 128, 8, 0, 1)
	if _, err := e.Encode(nil, []float64{1}); err == nil {
		t.Fatal("accepted wrong input length")
	}
	if _, err := Bipolar(e, nil, []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("bipolar accepted wrong length")
	}
	if _, err := packedOf(e, nil, []float64{1}); err == nil {
		t.Fatal("binary accepted wrong length")
	}
}

func TestIDLevelBinaryMatchesBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, _ := NewIDLevel(rng, 3, 200, 16, 0, 1)
	x := []float64{0.2, 0.9, 0.5}
	bip, _ := Bipolar(e, nil, x)
	bin, _ := packedOf(e, nil, x)
	dense := hdc.Unpack(bin)
	for j := range bip {
		if bip[j] != dense[j] {
			t.Fatalf("component %d differs", j)
		}
	}
}

func TestIDLevelDeterministic(t *testing.T) {
	x := []float64{0.3, 0.6}
	e1, _ := NewIDLevel(rand.New(rand.NewSource(11)), 2, 300, 8, 0, 1)
	e2, _ := NewIDLevel(rand.New(rand.NewSource(11)), 2, 300, 8, 0, 1)
	h1, _ := e1.Encode(nil, x)
	h2, _ := e2.Encode(nil, x)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("same seed produced different ID-level encodings")
		}
	}
}

// TestIDLevelQuantizeCharges pins the two prices of IDLevel's S: the
// in-place sign of the S-only route charges one comparison per dimension,
// while S next to H charges hdc.SignInto's comparison, read and write.
func TestIDLevelQuantizeCharges(t *testing.T) {
	e, _ := NewIDLevel(rand.New(rand.NewSource(12)), 3, 200, 16, 0, 1)
	x := []float64{0.2, 0.9, 0.5}
	var cH, cS, cBoth hdc.Counter
	if err := e.EncodeInto(&cH, x, hdc.NewVector(200), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeInto(&cS, x, nil, hdc.NewVector(200), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeInto(&cBoth, x, hdc.NewVector(200), hdc.NewVector(200), nil); err != nil {
		t.Fatal(err)
	}
	wantS := cH
	wantS.Add(hdc.OpCmp, 200)
	wantBoth := cH
	hdc.SignInto(&wantBoth, hdc.NewVector(200), hdc.NewVector(200))
	if cS != wantS || cBoth != wantBoth {
		t.Fatalf("S-only charged %v (want %v); raw+S charged %v (want %v)", &cS, &wantS, &cBoth, &wantBoth)
	}
}
