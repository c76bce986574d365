package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"reghd/internal/hdc"
)

func TestNewNonlinearValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNonlinear(rng, 0, 100); err == nil {
		t.Fatal("accepted zero features")
	}
	if _, err := NewNonlinear(rng, 5, 0); err == nil {
		t.Fatal("accepted zero dim")
	}
	e, err := NewNonlinear(rng, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 100 || e.Features() != 5 {
		t.Fatalf("Dim/Features = %d/%d", e.Dim(), e.Features())
	}
}

// packedOf returns the bit-packed encoding of x: EncodeInto with only the
// packed output requested.
func packedOf(e Encoder, ctr *hdc.Counter, x []float64) (*hdc.Binary, error) {
	b := hdc.NewBinary(e.Dim())
	if err := e.EncodeInto(ctr, x, nil, nil, b); err != nil {
		return nil, err
	}
	return b, nil
}

func TestNonlinearInputLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewNonlinear(rng, 4, 64)
	if _, err := e.Encode(nil, []float64{1, 2}); err == nil {
		t.Fatal("accepted wrong input length")
	}
	if _, err := Bipolar(e, nil, []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("bipolar accepted wrong input length")
	}
	if _, err := packedOf(e, nil, make([]float64, 3)); err == nil {
		t.Fatal("binary accepted wrong input length")
	}
}

func TestNonlinearDeterministic(t *testing.T) {
	e1, _ := NewNonlinear(rand.New(rand.NewSource(7)), 6, 500)
	e2, _ := NewNonlinear(rand.New(rand.NewSource(7)), 6, 500)
	x := []float64{0.1, -0.3, 0.5, 0.7, -0.2, 0.9}
	h1, _ := e1.Encode(nil, x)
	h2, _ := e2.Encode(nil, x)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("same seed produced different encodings")
		}
	}
}

func TestNonlinearRangeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, _ := NewNonlinear(rng, 8, 256)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	h, err := e.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range h {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("component %d = %v outside [-1,1]", j, v)
		}
	}
}

func TestNonlinearBipolarIsCenteredSignOfRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, _ := NewNonlinear(rng, 5, 200)
	x := []float64{0.4, -0.1, 0.2, 0.8, -0.6}
	raw, _ := e.Encode(nil, x)
	bip, _ := Bipolar(e, nil, x)
	if !bip.IsBipolar() {
		t.Fatal("Bipolar output not bipolar")
	}
	for j := range raw {
		want := 1.0
		if raw[j] < e.center[j] {
			want = -1
		}
		if bip[j] != want {
			t.Fatalf("component %d: raw %v, center %v, bipolar %v", j, raw[j], e.center[j], bip[j])
		}
	}
}

func TestNonlinearBinaryMatchesBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, _ := NewNonlinear(rng, 5, 333)
	x := []float64{0.4, -0.1, 0.2, 0.8, -0.6}
	bip, _ := Bipolar(e, nil, x)
	bin, _ := packedOf(e, nil, x)
	dense := hdc.Unpack(bin)
	for j := range bip {
		if bip[j] != dense[j] {
			t.Fatalf("component %d: bipolar %v, binary %v", j, bip[j], dense[j])
		}
	}
}

// TestSimilarityPreserving is the encoder's "common-sense principle" (§2.2):
// inputs close in the original space must be more similar in HD space than
// distant inputs, and far-apart inputs should be nearly orthogonal.
func TestSimilarityPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, _ := NewNonlinear(rng, 10, 8000)
	base := make([]float64, 10)
	near := make([]float64, 10)
	far := make([]float64, 10)
	for i := range base {
		base[i] = rng.NormFloat64()
		near[i] = base[i] + 0.02*rng.NormFloat64()
		far[i] = 5 * rng.NormFloat64()
	}
	hb, _ := Bipolar(e, nil, base)
	hn, _ := Bipolar(e, nil, near)
	hf, _ := Bipolar(e, nil, far)
	simNear := hdc.Cosine(nil, hb, hn)
	simFar := hdc.Cosine(nil, hb, hf)
	if simNear < 0.7 {
		t.Fatalf("near input similarity %v too low", simNear)
	}
	if math.Abs(simFar) > 0.15 {
		t.Fatalf("far input similarity %v, want ≈ 0", simFar)
	}
	if simNear <= simFar {
		t.Fatalf("similarity order violated: near %v <= far %v", simNear, simFar)
	}
}

func TestSimilarityMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, _ := NewNonlinear(rng, 6, 4000)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := make([]float64, 6)
		small := make([]float64, 6)
		big := make([]float64, 6)
		for i := range base {
			base[i] = r.NormFloat64()
			d := r.NormFloat64()
			small[i] = base[i] + 0.05*d
			big[i] = base[i] + 2.0*d
		}
		hb, _ := Bipolar(e, nil, base)
		hs, _ := Bipolar(e, nil, small)
		hg, _ := Bipolar(e, nil, big)
		return hdc.Cosine(nil, hb, hs) > hdc.Cosine(nil, hb, hg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBaseVectorsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e, _ := NewNonlinear(rng, 4, 10000)
	b0 := e.Base(0)
	b1 := e.Base(1)
	if c := hdc.Cosine(nil, b0, b1); math.Abs(c) > 0.06 {
		t.Fatalf("base vectors not nearly orthogonal: cosine %v", c)
	}
}

func TestBipolarProjectionVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	e, err := NewNonlinearProjection(rng, 6, 5000, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Base(0).IsBipolar() {
		t.Fatal("ProjBipolar base vector not bipolar")
	}
	if c := hdc.Cosine(nil, e.Base(0), e.Base(1)); math.Abs(c) > 0.08 {
		t.Fatalf("bipolar bases not nearly orthogonal: cosine %v", c)
	}
	// The bipolar variant still preserves similarity for moderate n.
	base := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	near := []float64{0.12, -0.18, 0.31, 0.41, -0.52, 0.58}
	hb, _ := Bipolar(e, nil, base)
	hn, _ := Bipolar(e, nil, near)
	if hdc.Cosine(nil, hb, hn) < 0.5 {
		t.Fatal("bipolar projection lost local similarity")
	}
	if _, err := NewNonlinearProjection(rng, 2, 10, 1, Projection(9)); err == nil {
		t.Fatal("unknown projection kind accepted")
	}
	if _, err := NewNonlinearProjection(rng, 2, 10, -1, ProjGaussian); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestEncodeCountsOps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e, _ := NewNonlinear(rng, 4, 100)
	var c hdc.Counter
	if _, err := e.Encode(&c, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if c.Count(hdc.OpExp) != 200 {
		t.Fatalf("exp count = %d, want 200 (cos+sin per dim)", c.Count(hdc.OpExp))
	}
	if c.Count(hdc.OpFloatMul) < 400 {
		t.Fatalf("mul count = %d, want >= n*D", c.Count(hdc.OpFloatMul))
	}
}

// newBipolarPair returns two identically-seeded bipolar-projection encoders,
// the second with the packed sign matrix removed so it runs the dense naive
// projection kernel — the pre-packing reference path.
func newBipolarPair(t *testing.T, seed int64, n, dim int) (packed, naive *Nonlinear) {
	t.Helper()
	packed, err := NewNonlinearProjection(rand.New(rand.NewSource(seed)), n, dim, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	naive, err = NewNonlinearProjection(rand.New(rand.NewSource(seed)), n, dim, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	naive.packed = nil
	if packed.packed == nil {
		t.Fatal("bipolar projection was not sign-packed at construction")
	}
	return packed, naive
}

// TestPackedProjectionMatchesNaive is the encoder-level differential: the
// packed sign-selected projection must reproduce the dense float kernel
// bit-for-bit across every encode entry point, with identical op counts.
func TestPackedProjectionMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, dim int }{{1, 64}, {6, 333}, {32, 4096}} {
		ep, en := newBipolarPair(t, 11, tc.n, tc.dim)
		rng := rand.New(rand.NewSource(12))
		x := make([]float64, tc.n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}

		var cp, cn hdc.Counter
		hp, err := ep.Encode(&cp, x)
		if err != nil {
			t.Fatal(err)
		}
		hn, err := en.Encode(&cn, x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range hp {
			if math.Float64bits(hp[j]) != math.Float64bits(hn[j]) {
				t.Fatalf("n=%d D=%d: raw[%d] packed %v != naive %v", tc.n, tc.dim, j, hp[j], hn[j])
			}
		}
		if cp != cn {
			t.Fatalf("n=%d D=%d: Encode op counts diverge: packed %v, naive %v", tc.n, tc.dim, &cp, &cn)
		}

		cp.Reset()
		cn.Reset()
		sp, _ := Bipolar(ep, &cp, x)
		sn, _ := Bipolar(en, &cn, x)
		for j := range sp {
			if sp[j] != sn[j] {
				t.Fatalf("n=%d D=%d: bipolar[%d] diverges", tc.n, tc.dim, j)
			}
		}
		if cp != cn {
			t.Fatalf("n=%d D=%d: Bipolar op counts diverge", tc.n, tc.dim)
		}

		cp.Reset()
		cn.Reset()
		bp, _ := packedOf(ep, &cp, x)
		bn, _ := packedOf(en, &cn, x)
		if !bp.Equal(bn) {
			t.Fatalf("n=%d D=%d: binary encodings diverge", tc.n, tc.dim)
		}
		if cp != cn {
			t.Fatalf("n=%d D=%d: packed op counts diverge", tc.n, tc.dim)
		}
	}
}

// TestEncodeBinaryDirectMatchesMaterialized pins the packed-only route of
// EncodeInto: the direct raw→packed path must produce the exact bits of
// Pack(Bipolar) and charge the identical op counts, for both projection
// kinds.
func TestEncodeBinaryDirectMatchesMaterialized(t *testing.T) {
	for _, kind := range []Projection{ProjGaussian, ProjBipolar} {
		e, err := NewNonlinearProjection(rand.New(rand.NewSource(13)), 7, 1000, 3, kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, 7)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			var cDirect, cRef hdc.Counter
			direct, err := packedOf(e, &cDirect, x)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Bipolar(e, &cRef, x)
			if err != nil {
				t.Fatal(err)
			}
			ref := hdc.Pack(&cRef, s)
			if !direct.Equal(ref) {
				t.Fatalf("kind=%v: direct binary encoding differs from Pack(Bipolar)", kind)
			}
			if cDirect != cRef {
				t.Fatalf("kind=%v: op counts diverge: direct %v, materialized %v", kind, &cDirect, &cRef)
			}
		}
	}
}

// TestEncodeIntoMatchesAlloc checks EncodeInto for every non-empty set of
// requested outputs against the allocating two-pass reference (Encode, then
// the centered sign, then hdc.Pack): identical bits in every requested
// output, including into reused buffers holding stale values, and the
// charge of exactly what that reference path spends on the same outputs.
func TestEncodeIntoMatchesAlloc(t *testing.T) {
	const n, dim = 5, 200
	for _, kind := range []Projection{ProjGaussian, ProjBipolar} {
		e, err := NewNonlinearProjection(rand.New(rand.NewSource(15)), n, dim, 2, kind)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{0.3, -0.7, 1.1, 0.2, -0.4}
		var cH hdc.Counter
		h, err := e.Encode(&cH, x)
		if err != nil {
			t.Fatal(err)
		}
		s := hdc.NewVector(dim)
		for j, v := range h {
			s[j] = -1
			if v >= e.center[j] {
				s[j] = 1
			}
		}
		for mask := 1; mask < 8; mask++ {
			var raw, bip hdc.Vector
			var bin *hdc.Binary
			if mask&1 != 0 {
				raw = hdc.NewVector(dim)
			}
			if mask&2 != 0 {
				bip = hdc.NewVector(dim)
			}
			if mask&4 != 0 {
				bin = hdc.NewBinary(dim)
			}
			for round := 0; round < 2; round++ {
				// Stale contents must be fully overwritten.
				for j := range raw {
					raw[j] = math.NaN()
				}
				for j := range bip {
					bip[j] = 7
				}
				if bin != nil {
					for w := range bin.Words {
						bin.Words[w] = ^uint64(0)
					}
				}
				var got hdc.Counter
				if err := e.EncodeInto(&got, x, raw, bip, bin); err != nil {
					t.Fatal(err)
				}
				for j := range raw {
					if math.Float64bits(raw[j]) != math.Float64bits(h[j]) {
						t.Fatalf("kind=%v mask=%03b: raw[%d] = %v, want %v", kind, mask, j, raw[j], h[j])
					}
				}
				for j := range bip {
					if bip[j] != s[j] {
						t.Fatalf("kind=%v mask=%03b: bipolar[%d] = %v, want %v", kind, mask, j, bip[j], s[j])
					}
				}
				want := cH
				if mask&6 != 0 {
					want.Add(hdc.OpCmp, dim)
				}
				if bin != nil {
					if ref := hdc.Pack(&want, s); !bin.Equal(ref) {
						t.Fatalf("kind=%v mask=%03b: packed differs from Pack(S)", kind, mask)
					}
				}
				if got != want {
					t.Fatalf("kind=%v mask=%03b: charged %v, want %v", kind, mask, &got, &want)
				}
			}
		}

		// No output requested: nothing to do, nothing charged.
		var none hdc.Counter
		if err := e.EncodeInto(&none, x, nil, nil, nil); err != nil || none.Total() != 0 {
			t.Fatalf("kind=%v: empty request returned %v and charged %v", kind, err, &none)
		}

		// Destination validation.
		if err := e.EncodeInto(nil, x, make(hdc.Vector, 10), nil, nil); err == nil {
			t.Fatal("EncodeInto accepted a wrong-size raw destination")
		}
		if err := e.EncodeInto(nil, x, nil, make(hdc.Vector, 10), nil); err == nil {
			t.Fatal("EncodeInto accepted a wrong-size bipolar destination")
		}
		if err := e.EncodeInto(nil, x, nil, nil, hdc.NewBinary(10)); err == nil {
			t.Fatal("EncodeInto accepted a wrong-size packed destination")
		}
		if err := e.EncodeInto(nil, x[:4], nil, hdc.NewVector(dim), nil); err == nil {
			t.Fatal("EncodeInto accepted a wrong-length input")
		}
	}
}

// TestGobRoundTripRestoresPackedProjection ensures a restored bipolar
// encoder re-derives the packed sign matrix and keeps encoding identically.
func TestGobRoundTripRestoresPackedProjection(t *testing.T) {
	e, err := NewNonlinearProjection(rand.New(rand.NewSource(18)), 5, 256, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	restored := roundTrip(t, e).(*Nonlinear)
	if restored.packed == nil {
		t.Fatal("restored bipolar encoder lost its packed projection")
	}
	x := []float64{0.2, -0.5, 0.9, -0.1, 0.7}
	h1, _ := e.Encode(nil, x)
	h2, _ := restored.Encode(nil, x)
	for j := range h1 {
		if math.Float64bits(h1[j]) != math.Float64bits(h2[j]) {
			t.Fatalf("restored encoder diverges at %d", j)
		}
	}
	// A Gaussian encoder must stay unpacked after the round trip.
	g, err := NewNonlinear(rand.New(rand.NewSource(19)), 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	if roundTrip(t, g).(*Nonlinear).packed != nil {
		t.Fatal("Gaussian encoder acquired a packed projection on load")
	}
}
