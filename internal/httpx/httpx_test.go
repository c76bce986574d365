package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDecodeRow(t *testing.T) {
	// A syntactically valid row one byte over the cap: the decoder must
	// refuse it for its size, not for its content.
	pad := strings.Repeat(" ", MaxBodyBytes-len(`{"x":[1]}`)+1)
	cases := []struct {
		name   string
		body   string
		status int // 0: accepted
		want   []float64
	}{
		{"row", `{"x":[1.5,-2,3e-7]}`, 0, []float64{1.5, -2, 3e-7}},
		{"trailing whitespace", "{\"x\":[4]} \n\t", 0, []float64{4}},
		{"no x", `{}`, 0, nil},
		{"at cap", `{"x":[1]}` + pad[1:], 0, []float64{1}},
		{"empty", "", http.StatusBadRequest, nil},
		{"whitespace only", " \n", http.StatusBadRequest, nil},
		{"trailing garbage", `{"x":[1]} junk`, http.StatusBadRequest, nil},
		{"second object", `{"x":[1]}{"x":[2]}`, http.StatusBadRequest, nil},
		{"stray bracket", `{"x":[1]}]`, http.StatusBadRequest, nil},
		{"truncated", `{"x":[1,`, http.StatusBadRequest, nil},
		{"not a number", `{"x":["a"]}`, http.StatusBadRequest, nil},
		{"out of range", `{"x":[1e400]}`, http.StatusBadRequest, nil},
		{"over cap", `{"x":[1]}` + pad, http.StatusRequestEntityTooLarge, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(c.body))
			x, err := DecodeRow(rec, req)
			if c.status == 0 {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				if !sameBits(x, c.want) {
					t.Fatalf("row %v, want %v", x, c.want)
				}
				return
			}
			var de *Error
			if !errors.As(err, &de) || de.Status != c.status {
				t.Fatalf("error %v, want status %d", err, c.status)
			}
			if rec.Code != c.status {
				t.Fatalf("answered %d, want %d", rec.Code, c.status)
			}
		})
	}
}

// TestNewServerTimeouts pins the server's one timeout. ReadHeaderTimeout
// must be set, so a client that never finishes its headers cannot hold a
// goroutine and a socket forever. ReadTimeout and IdleTimeout must stay
// unset: with IdleTimeout zero net/http uses ReadTimeout as the idle
// timeout, and a server that closes idle keep-alive connections fails any
// client that reuses a connection without redialling (the benchmark's
// HTTP client is one). ReadHeaderTimeout only starts once a request's
// first bytes arrive, so it never closes an idle connection.
func TestNewServerTimeouts(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	if srv.ReadTimeout != 0 || srv.IdleTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, IdleTimeout %v, WriteTimeout %v: want all unset",
			srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
}

// FuzzDecodeRow feeds the row decoder arbitrary bodies under arbitrary
// caps (cut 0 means MaxBodyBytes). It must never panic; a refusal must be
// an *Error with status 400, or 413 only when the body really is over the
// cap; and an accepted row must re-marshal and decode again to the same
// Float64bits.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte(`{"x":[14.96,41.76,1024.07,73.17]}`), uint16(0))
	f.Add([]byte(`{"x":[-0,5e-324,1.7976931348623157e308]}`), uint16(0))
	f.Add([]byte(`{"x":[1]} trailing`), uint16(0))
	f.Add([]byte(`{"x":[1,2,3]}`), uint16(8))
	f.Add([]byte(``), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		limit := int64(MaxBodyBytes)
		if cut > 0 {
			limit = int64(cut)
		}
		x, derr := decodeRow(nil, io.NopCloser(bytes.NewReader(data)), limit)
		if derr != nil {
			switch {
			case derr.Status == http.StatusRequestEntityTooLarge && int64(len(data)) <= limit:
				t.Fatalf("413 for a %d-byte body under a %d-byte cap", len(data), limit)
			case derr.Status != http.StatusBadRequest && derr.Status != http.StatusRequestEntityTooLarge:
				t.Fatalf("status %d: %v", derr.Status, derr)
			}
			return
		}
		if int64(len(data)) > limit {
			t.Fatalf("accepted a %d-byte body over a %d-byte cap", len(data), limit)
		}
		again, err := json.Marshal(map[string][]float64{"x": x})
		if err != nil {
			t.Fatalf("accepted row %v does not re-marshal: %v", x, err)
		}
		y, derr := decodeRow(nil, io.NopCloser(bytes.NewReader(again)), MaxBodyBytes)
		if derr != nil {
			t.Fatalf("re-marshaled row %s refused: %v", again, derr)
		}
		if !sameBits(x, y) {
			t.Fatalf("round trip changed the row: %v -> %v", x, y)
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
