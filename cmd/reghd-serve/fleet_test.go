package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"reghd"
	"reghd/internal/httpx"
)

// testFleet seeds a fleet of toy tenants (airfoil, D=128, k=2, 1 epoch)
// plus one corrupt checkpoint into a temp dir and serves it through
// fleetMux from a registry with the given resident budget (0 = unlimited).
// It returns the server, the registry, and one direct reference engine per
// tenant, tenant-00 first.
func testFleet(t *testing.T, tenants, maxResident int) (*httptest.Server, *reghd.Registry, []*reghd.Engine) {
	t.Helper()
	dir := t.TempDir()
	names, err := seedFleet(dir, "airfoil", tenants, 128, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt"+reghd.ModelExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	direct := make([]*reghd.Engine, len(names))
	for i, name := range names {
		pipe, err := reghd.LoadPipelineFile(filepath.Join(dir, name+reghd.ModelExt))
		if err != nil {
			t.Fatal(err)
		}
		if direct[i], err = reghd.NewPipelineEngine(pipe); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := reghd.NewRegistry(reghd.RegistryConfig{Dir: dir, MaxResident: maxResident})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fleetMux(reg, 0))
	t.Cleanup(srv.Close)
	return srv, reg, direct
}

func postPredict(t *testing.T, url, tenant string, x []float64) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string][]float64{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	resp, out, err := post(url+"/predict/"+tenant, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// post sends one raw /predict body and returns the response and its body.
// It reports errors instead of failing the test so that client goroutines
// can call it.
func post(url string, body []byte) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func TestFleetPredictBitIdentical(t *testing.T) {
	srv, _, direct := testFleet(t, 2, 0)
	x := []float64{0.5, -1.0, 0.25, 1.5, -0.75}
	want, err := direct[0].Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postPredict(t, srv.URL, "tenant-00", x)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Y float64 `json:"y"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Y) != math.Float64bits(want) {
		t.Fatalf("fleet %v != direct %v", out.Y, want)
	}
}

func TestFleetPredictStatuses(t *testing.T) {
	srv, _, _ := testFleet(t, 2, 0)
	row := `{"x":[1,2,3,4,5]}`
	cases := []struct {
		name, tenant, body string
		status             int
	}{
		{"ok", "tenant-00", row, http.StatusOK},
		{"unknown tenant", "no-such-tenant", row, http.StatusNotFound},
		{"corrupt checkpoint", "corrupt", row, http.StatusServiceUnavailable},
		{"wrong arity", "tenant-00", `{"x":[1]}`, http.StatusBadRequest},
		// JSON has no NaN or Inf; the nearest non-finite input is a number
		// out of float64 range.
		{"out of range", "tenant-00", `{"x":[1,2,1e400,4,5]}`, http.StatusBadRequest},
		{"empty body", "tenant-00", "", http.StatusBadRequest},
		{"trailing garbage", "tenant-00", row + " junk", http.StatusBadRequest},
		{"oversized body", "tenant-00", row + strings.Repeat(" ", httpx.MaxBodyBytes), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, body, err := post(srv.URL+"/predict/"+c.tenant, []byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
		}
	}
}

// TestFleetEvictionsUnderLoad is the fleet's end-to-end serving contract
// over HTTP: 8 tenants behind a resident budget of 4, driven by concurrent
// clients with zipfian tenant picks, so LRU evictions and reloads happen
// while requests are in flight. Every response must be 200 and
// Float64bits-equal to a direct engine over the same checkpoint, and the
// registry must report evictions on /models.
func TestFleetEvictionsUnderLoad(t *testing.T) {
	const (
		tenants   = 8
		resident  = 4
		clients   = 4
		perClient = 100
	)
	srv, _, direct := testFleet(t, tenants, resident)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.2, 1, tenants-1)
			x := make([]float64, direct[0].Features())
			for i := 0; i < perClient; i++ {
				k := int(zipf.Uint64())
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				want, err := direct[k].Predict(x)
				if err != nil {
					errs <- err
					return
				}
				body, err := json.Marshal(map[string][]float64{"x": x})
				if err != nil {
					errs <- err
					return
				}
				resp, out, err := post(fmt.Sprintf("%s/predict/tenant-%02d", srv.URL, k), body)
				if err != nil {
					errs <- err
					return
				}
				var got struct {
					Y float64 `json:"y"`
				}
				if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &got) != nil {
					errs <- fmt.Errorf("tenant-%02d: status %d: %s", k, resp.StatusCode, out)
					return
				}
				if math.Float64bits(got.Y) != math.Float64bits(want) {
					errs <- fmt.Errorf("tenant-%02d: served %v, direct %v", k, got.Y, want)
					return
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat struct {
		Metrics reghd.RegistryMetrics `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if cat.Metrics.Evictions == 0 {
		t.Fatalf("no LRU evictions under a %d-of-%d resident budget: %+v", resident, tenants, cat.Metrics)
	}
	if cat.Metrics.Routed != clients*perClient {
		t.Fatalf("routed %d requests, want %d", cat.Metrics.Routed, clients*perClient)
	}
}

func TestFleetModelsCatalog(t *testing.T) {
	srv, _, _ := testFleet(t, 2, 0)
	get := func() (infos []struct {
		Name     string `json:"name"`
		Resident bool   `json:"resident"`
		Features int    `json:"features"`
	}) {
		resp, err := http.Get(srv.URL + "/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Models []struct {
				Name     string `json:"name"`
				Resident bool   `json:"resident"`
				Features int    `json:"features"`
			} `json:"models"`
			Metrics reghd.RegistryMetrics `json:"metrics"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Models
	}
	infos := get()
	if len(infos) != 3 { // tenant-00, tenant-01, corrupt
		t.Fatalf("catalog: %+v", infos)
	}
	for _, m := range infos {
		if m.Resident || m.Features != -1 {
			t.Fatalf("cold catalog forced a load: %+v", m)
		}
	}
	postPredict(t, srv.URL, "tenant-00", []float64{1, 2, 3, 4, 5})
	for _, m := range get() {
		if m.Name == "tenant-00" && (!m.Resident || m.Features != 5) {
			t.Fatalf("after predict: %+v", m)
		}
	}
}

func TestFleetHealthz(t *testing.T) {
	srv, reg, _ := testFleet(t, 2, 0)
	check := func(path string, status int, want string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, status)
		}
		if want != "" && buf.String() != want+"\n" {
			t.Fatalf("%s: body %q, want %q", path, buf.String(), want)
		}
	}
	check("/healthz", http.StatusOK, "ok")
	check("/healthz/tenant-00", http.StatusOK, "idle")
	check("/healthz/no-such-tenant", http.StatusNotFound, "")
	if _, err := reg.Predict("tenant-00", []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	check("/healthz/tenant-00", http.StatusOK, "ok")
}

func TestFleetMetricsEndpoint(t *testing.T) {
	srv, _, _ := testFleet(t, 2, 0)
	postPredict(t, srv.URL, "tenant-00", []float64{1, 2, 3, 4, 5})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars["reghd.registry"]
	if !ok {
		t.Fatalf("reghd.registry missing from /metrics (have %d vars)", len(vars))
	}
	var m reghd.RegistryMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Loads < 1 || m.Routed < 1 {
		t.Fatalf("registry metrics not live: %+v", m)
	}
}

func TestSeedFleetIdempotent(t *testing.T) {
	dir := t.TempDir()
	if _, err := seedFleet(dir, "airfoil", 2, 128, 2, 1); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, "tenant-00"+reghd.ModelExt))
	if err != nil {
		t.Fatal(err)
	}
	names, err := seedFleet(dir, "airfoil", 2, 128, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	after, err := os.Stat(filepath.Join(dir, "tenant-00"+reghd.ModelExt))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("re-seeding rewrote an existing tenant checkpoint")
	}
	// Distinct encoder seeds: sibling tenants disagree on the same input.
	var ys [2]float64
	for i := range ys {
		pipe, err := reghd.LoadPipelineFile(filepath.Join(dir, fmt.Sprintf("tenant-%02d%s", i, reghd.ModelExt)))
		if err != nil {
			t.Fatal(err)
		}
		if ys[i], err = pipe.Predict([]float64{1, 2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Float64bits(ys[0]) == math.Float64bits(ys[1]) {
		t.Fatal("seeded tenants are identical models")
	}
}
