package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
)

var testFormat = Format{Magic: "RHtw", Version: 3, Name: "test frame"}

// body writes a frame body that crosses several chunk boundaries.
func body(w *Writer) {
	w.U8(7)
	w.Bool(true)
	w.U32(1 << 20)
	w.U64(math.MaxUint64)
	w.F64(math.Copysign(0, -1))
	floats := make([]float64, 3*chunk/8+5)
	for i := range floats {
		floats[i] = float64(i) / 3
	}
	w.Floats(floats)
	w.Words([]uint64{1, 2, 3})
}

// readBody reads what body wrote and checks it.
func readBody(t *testing.T, r *Reader) {
	t.Helper()
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if n := r.Count(1 << 20); n != 1<<20 {
		t.Fatalf("Count = %d", n)
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 = %v", v)
	}
	floats := r.Floats(3*chunk/8 + 5)
	for i, v := range floats {
		if math.Float64bits(v) != math.Float64bits(float64(i)/3) {
			t.Fatalf("Floats[%d] = %v", i, v)
		}
	}
	if ws := r.Words(3); len(ws) != 3 || ws[0] != 1 || ws[2] != 3 {
		t.Fatalf("Words = %v", ws)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func encode(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testFormat)
	body(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// open opens the test frame held in data.
func open(data []byte) (*Reader, error) {
	return NewReader(bytes.NewReader(data), int64(len(data)), testFormat)
}

func TestRoundTrip(t *testing.T) {
	data := encode(t)
	r, err := open(data)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r)
	// A source that returns one byte per Read exercises every refill.
	r, err = NewReader(iotest.OneByteReader(bytes.NewReader(data)), int64(len(data)), testFormat)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r)
}

func TestReaderRejects(t *testing.T) {
	data := encode(t)
	corrupt := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// drain reads the fields body writes, ignoring their values, and
	// closes.
	drain := func(r *Reader, err error) error {
		if err != nil {
			return err
		}
		r.U8()
		r.Bool()
		r.U32()
		r.U64()
		r.F64()
		r.Floats(3*chunk/8 + 5)
		r.Words(3)
		return r.Close()
	}
	_, err := open(data[:8])
	corrupt("short", err)
	_, err = open(append([]byte("XXXX"), data[4:]...))
	corrupt("magic", err)
	_, err = open(append([]byte("RHtw\x04"), data[5:]...))
	corrupt("version", err)

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 1
	corrupt("flipped bit", drain(open(flipped)))
	corrupt("trailing bytes", drain(open(append(append([]byte(nil), data...), 0))))
	// The source ends before the size it was opened with.
	corrupt("truncated source", drain(NewReader(bytes.NewReader(data[:len(data)-10]), int64(len(data)), testFormat)))

	r, _ := open(data)
	r.U8()
	if r.Bool(); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Count(10); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("count beyond its bound: %v", r.Err())
	}

	var bad bytes.Buffer
	w := NewWriter(&bad, testFormat)
	w.U8(2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ = open(bad.Bytes())
	if r.Bool(); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("boolean byte 2: %v", r.Err())
	}
}

// TestReaderBoundsAllocation pins that a count larger than the frame is
// refused before anything is allocated for it.
func TestReaderBoundsAllocation(t *testing.T) {
	r, err := open(encode(t))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vs := r.Floats(1 << 27) // 1 GiB
	runtime.ReadMemStats(&after)
	if vs != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("oversized Floats returned %d values, err %v", len(vs), r.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing an oversized count allocated %d bytes", grew)
	}
}

// TestReadErrorIsNotCorruption pins that a failing source surfaces as an
// I/O error, not as a damaged frame.
func TestReadErrorIsNotCorruption(t *testing.T) {
	boom := errors.New("disk failed")
	_, err := NewReader(iotest.ErrReader(boom), 100, testFormat)
	if !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v", err)
	}
}

func TestWriterLatchesError(t *testing.T) {
	boom := errors.New("disk full")
	w := NewWriter(failingWriter{boom}, testFormat)
	body(w)
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }
