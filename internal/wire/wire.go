// Package wire is the framing shared by reghd's binary formats, the model
// checkpoint (internal/core/serialize.go) and the replication delta
// (internal/core/deltawire.go). A frame is a 4-byte magic, a version byte,
// a little-endian body, and a CRC32-C trailer over every byte before it.
//
// Writer streams a body out through a fixed-size buffer. Reader streams it
// back in fixed-size chunks while it updates the checksum, bounds every
// count and every allocation by the bytes the frame has left, and verifies
// the trailer at Close. A decoder built on Reader therefore never allocates
// more than the frame holds, whatever its header claims, and a damaged
// frame surfaces as ErrCorrupt rather than as silently wrong values.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorrupt is wrapped by every Reader error that means the bytes are not
// a well-formed frame: a short or truncated frame, the wrong magic or
// version, a count beyond its bound or beyond the bytes left, unread bytes
// before the trailer, or a checksum mismatch. A read error from the
// underlying source does not wrap it.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Format names one framed encoding.
type Format struct {
	Magic   string // the 4 bytes opening every frame
	Version byte   // the only layout version a Reader accepts
	Name    string // what the frame holds, for error messages
}

// headerLen and trailerLen are the frame bytes around the body.
const (
	headerLen  = 5 // magic + version
	trailerLen = 4 // CRC32-C
)

// chunk is the buffer size of streaming writers and readers.
const chunk = 64 << 10

// castagnoli is the checksum table (the polynomial with hardware support on
// current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer writes one frame. Field methods append to an internal buffer that
// is flushed to the destination in fixed-size chunks; errors from the
// destination latch and are returned by Close.
type Writer struct {
	dst io.Writer
	buf []byte
	crc uint32
	err error
}

// NewWriter starts a frame of format f that streams to dst.
func NewWriter(dst io.Writer, f Format) *Writer {
	w := &Writer{dst: dst, buf: make([]byte, 0, chunk+8)}
	w.buf = append(w.buf, f.Magic...)
	w.buf = append(w.buf, f.Version)
	return w
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	w.buf = append(w.buf, v)
	w.spill()
}

// Bool appends a byte that is 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	w.spill()
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	w.spill()
}

// F64 appends the Float64bits of v.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Floats appends the Float64bits of every element.
func (w *Writer) Floats(vs []float64) {
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
		w.spill()
	}
}

// Words appends every element as a little-endian uint64.
func (w *Writer) Words(ws []uint64) {
	for _, v := range ws {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
		w.spill()
	}
}

// spill flushes a full buffer.
func (w *Writer) spill() {
	if len(w.buf) >= chunk {
		w.flush()
	}
}

// flush folds the buffer into the checksum and writes it out.
func (w *Writer) flush() {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf)
	if w.err == nil {
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Close flushes the frame and writes its checksum trailer, returning the
// first write error.
func (w *Writer) Close() error {
	w.flush()
	if w.err == nil {
		_, w.err = w.dst.Write(binary.LittleEndian.AppendUint32(w.buf, w.crc))
	}
	return w.err
}

// Reader reads one frame. Field methods return zero values once an error
// has latched; check Err, or Close, after a run of reads.
type Reader struct {
	src      io.Reader
	buf      []byte
	pos, end int   // unread bytes are buf[pos:end]
	unread   int64 // frame bytes not yet pulled from src
	left     int64 // body bytes not yet consumed (excludes the trailer)
	crc      uint32
	err      error
}

// NewReader opens the frame of format f that occupies the next size bytes
// of src. It reads and checks the magic and version and leaves the reader
// at the start of the body.
func NewReader(src io.Reader, size int64, f Format) (*Reader, error) {
	n := int64(chunk)
	if size < n {
		n = max(size, 0)
	}
	r := &Reader{src: src, buf: make([]byte, n), unread: size, left: size - trailerLen}
	if size < headerLen+trailerLen {
		return nil, r.Fail("%d bytes is shorter than a %s frame", size, f.Name)
	}
	switch head := r.next(headerLen); {
	case head == nil:
		return nil, r.err
	case string(head[:4]) != f.Magic:
		return nil, r.Fail("not a framed %s (bad magic)", f.Name)
	case head[4] != f.Version:
		return nil, r.Fail("%s version %d, this build reads version %d", f.Name, head[4], f.Version)
	}
	return r, nil
}

// Fail latches a corruption error (the first one wins) and returns it.
func (r *Reader) Fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	return r.err
}

// Err returns the first error of the reader, or nil.
func (r *Reader) Err() error { return r.err }

// Left returns the body bytes not yet consumed.
func (r *Reader) Left() int64 { return r.left }

// next consumes n ≤ chunk body bytes, folding them into the checksum.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if int64(n) > r.left {
		r.Fail("truncated: %d bytes wanted, %d left", n, r.left)
		return nil
	}
	b := r.raw(n)
	if b != nil {
		r.left -= int64(n)
		r.crc = crc32.Update(r.crc, castagnoli, b)
	}
	return b
}

// raw returns the next n frame bytes, refilling the buffer from src when
// it holds fewer.
func (r *Reader) raw(n int) []byte {
	if r.end-r.pos < n {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
		limit := int64(len(r.buf) - r.end)
		if limit > r.unread {
			limit = r.unread
		}
		got, err := io.ReadAtLeast(r.src, r.buf[r.end:r.end+int(limit)], n-r.end)
		r.end += got
		r.unread -= int64(got)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrShortBuffer):
			r.Fail("truncated: source ended early")
			return nil
		case err != nil:
			r.err = fmt.Errorf("wire: reading: %w", err)
			return nil
		}
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.next(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte written by Writer.Bool; any value but 0 or 1 is
// corrupt.
func (r *Reader) Bool() bool {
	switch b := r.U8(); b {
	case 0, 1:
		return b == 1
	default:
		r.Fail("boolean byte %d", b)
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.next(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.next(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 from its Float64bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a uint32 count and checks it against max before anything is
// sized from it.
func (r *Reader) Count(max int) int {
	n := r.U32()
	if int64(n) > int64(max) {
		r.Fail("count %d exceeds its bound %d", n, max)
		return 0
	}
	return int(n)
}

// Floats reads n float64s into one new slice, nil when n is 0. n is
// checked against the bytes left before the slice is allocated.
func (r *Reader) Floats(n int) []float64 {
	if !r.fits(n) || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := 0; i < n; {
		m := min(n-i, chunk/8)
		b := r.next(8 * m)
		if b == nil {
			return nil
		}
		for j := range vs[i : i+m] {
			vs[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		i += m
	}
	return vs
}

// Words reads n little-endian uint64s into one new slice, checked like
// Floats and nil when n is 0.
func (r *Reader) Words(n int) []uint64 {
	if !r.fits(n) || n == 0 {
		return nil
	}
	ws := make([]uint64, n)
	for i := 0; i < n; {
		m := min(n-i, chunk/8)
		b := r.next(8 * m)
		if b == nil {
			return nil
		}
		for j := range ws[i : i+m] {
			ws[i+j] = binary.LittleEndian.Uint64(b[8*j:])
		}
		i += m
	}
	return ws
}

// fits reports whether n 8-byte values remain in the body, latching a
// corruption error when they do not.
func (r *Reader) fits(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || int64(n) > r.left/8 {
		r.Fail("truncated: %d values wanted, %d bytes left", n, r.left)
		return false
	}
	return true
}

// Close checks that the body was consumed exactly and that the trailer
// matches the checksum of every byte before it. It returns the reader's
// first error.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.left != 0 {
		return r.Fail("%d unread bytes before the trailer", r.left)
	}
	tail := r.raw(trailerLen)
	if tail == nil {
		return r.err
	}
	if binary.LittleEndian.Uint32(tail) != r.crc {
		return r.Fail("checksum mismatch")
	}
	return nil
}
