// Package httpx is the HTTP plumbing the serving commands share
// (cmd/reghd-serve in both modes, cmd/reghd-replica): the one decoder every
// /predict handler reads its request row with, and the one http.Server
// constructor they listen through.
package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// MaxBodyBytes caps a /predict request body. The body is one row,
// {"x":[...]}, and encoding/json writes a float64 in at most 24 bytes
// (-1.2345678901234567e-308) plus a comma, so 1 MiB admits a row of over
// 40 000 features: far wider than any model these servers load (the
// benchmark's tenants take 32), yet small enough that a hostile client
// cannot make a handler buffer and decode an unbounded body. It is a
// constant, not a flag: a wider model is a code change, not an operator
// setting.
const MaxBodyBytes = 1 << 20

// ReadHeaderTimeout bounds how long a connection may take to send a
// request's headers, so a client that never finishes them cannot hold a
// goroutine and a socket forever. It is the only timeout NewServer sets.
// ReadTimeout is left unset because, with IdleTimeout zero, net/http uses
// it as the idle timeout too, and closing idle keep-alive connections would
// fail clients that reuse a connection without redialling.
// ReadHeaderTimeout starts only once a request's first bytes arrive, so an
// idle keep-alive connection never trips it.
const ReadHeaderTimeout = 10 * time.Second

// NewServer returns the http.Server every serving command listens through:
// h behind ReadHeaderTimeout.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// Error is DecodeRow's failure: the HTTP status the handler answers with
// (400 or 413) and the cause.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }

func (e *Error) Unwrap() error { return e.Err }

// DecodeRow reads one /predict body, {"x":[...]}, and returns the row. The
// body is capped at MaxBodyBytes. On failure DecodeRow has already answered
// the request, and the error is an *Error: 413 when the body exceeds the
// cap, 400 when it is empty, is not a JSON object of that shape, or carries
// anything but whitespace after the object. A missing or null "x" decodes
// to a nil row, which the engine rejects for its arity.
func DecodeRow(w http.ResponseWriter, r *http.Request) ([]float64, error) {
	x, err := decodeRow(w, r.Body, MaxBodyBytes)
	if err != nil {
		http.Error(w, err.Error(), err.Status)
		return nil, err
	}
	return x, nil
}

// decodeRow is DecodeRow's decoder over any body and cap; it leaves the
// response to the caller.
func decodeRow(w http.ResponseWriter, body io.ReadCloser, limit int64) ([]float64, *Error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, limit))
	var req struct {
		X []float64 `json:"x"`
	}
	if err := dec.Decode(&req); err != nil {
		if errors.Is(err, io.EOF) {
			err = errors.New("empty request body")
		}
		return nil, bodyError(err)
	}
	// Decode stops after the first value; a second token means the body
	// is not one object, so it is refused rather than half-read.
	tok, err := dec.Token()
	if err == nil {
		err = fmt.Errorf("unexpected %v after the request object", tok)
	}
	if !errors.Is(err, io.EOF) {
		return nil, bodyError(err)
	}
	return req.X, nil
}

// bodyError classifies a read or decode failure: 413 when the cap cut the
// body off, 400 otherwise.
func bodyError(err error) *Error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &Error{Status: http.StatusRequestEntityTooLarge, Err: err}
	}
	return &Error{Status: http.StatusBadRequest, Err: err}
}
