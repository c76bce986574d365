package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestSchedulesAreDeterministic(t *testing.T) {
	s := fullSizes()
	f := &fleet{tenants: make([]*tenant, s.hotTenants), pool: s.pool}
	cfg := serveConfig{tenants: s.hotTenants, zipfS: 1.2, rate: s.hotRate}
	a, b := newServeSchedule(7, cfg, f, s, 2), newServeSchedule(7, cfg, f, s, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve schedule differs for the same seed")
	}
	if reflect.DeepEqual(a, newServeSchedule(8, cfg, f, s, 2)) {
		t.Error("serve schedule is the same for different seeds")
	}
	if len(a.cover) != s.hotTenants*s.pool {
		t.Errorf("cover phase has %d requests, want every one of %d", len(a.cover), s.hotTenants*s.pool)
	}

	if !reflect.DeepEqual(newStreamSchedule(7, s, 2, 100, 50), newStreamSchedule(7, s, 2, 100, 50)) {
		t.Error("stream schedule differs for the same seed")
	}
	o1, d1 := newTrainSchedule(7, s, 100)
	o2, d2 := newTrainSchedule(7, s, 100)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(d1, d2) {
		t.Error("train schedule differs for the same seed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// The references are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{2.5, 0.5}, [3]float64{0, 1.5, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30}, // overlaps the first: [10, 50] counts once
		{Start: 60, End: 70},
		{Start: 65, End: 68},  // inside the third
		{Start: 90, End: 120}, // clipped to the parent: [90, 100]
		{Start: -5, End: 0},   // outside
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}

	tr := &tracer{}
	root := tr.add("request", 1, -1, 0, 100)
	tr.add("registry.route", 1, root, 0, 30)
	tr.add("engine.predict", 1, root, 30, 90)
	if got := selfTimes(merge(&tracer{spans: []span{{Name: "other", Parent: -1}}}, tr), "request"); len(got) != 1 || got[0] != 10 {
		t.Errorf("selfTimes after merge = %v, want [10]", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{1.03, 1.04, 1.02, 1.05, 1.01}, "within bound"},
		{[]float64{1.20, 1.21, 1.19, 1.22, 1.18}, "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.82, 0.78}, "better"},
		{[]float64{0.5, 1.0, 1.5, 2.0, 2.5}, "unresolved"},
	} {
		if got := verdict(lat, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %q, want %q", c.b, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDeclarations(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if !nameRE.MatchString(s.Name) || seen[s.Name] {
				t.Errorf("metric name %q is malformed or repeated", s.Name)
			}
			seen[s.Name] = true
			if !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: unit %q is malformed", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better is %q", s.Name, s.Better)
			}
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if s, ok := specByName("setup_s"); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Error("setup_s is not declared in s, lower is better")
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark declares %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, benchmark declares %+v", i, m, s)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark declares %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, benchmark declares %+v", i, m, s)
		}
	}
}

// toySizes shrinks every workload so the four of them run in seconds.
func toySizes() sizes {
	s := fullSizes()
	s.dim, s.rows, s.pool = 256, 200, 8
	s.hotTenants, s.churnTenants = 2, 4
	s.hotRate, s.churnRate = 200, 50
	s.warmup = 100 * time.Millisecond
	s.trainEpochs, s.scoreRate = 1, 20000
	s.heldOut, s.streamPool, s.streamUpdatesPerSec, s.streamReadRate = 50, 200, 300, 200
	s.minReps, s.setupMin = 2, 0
	return s
}

// TestSmoke runs every workload traced at toy scale against a freshly
// built reghd-serve and checks that each prints every declared metric and
// that every output was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds reghd-serve and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "reghd-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "reghd/cmd/reghd-serve").CombinedOutput(); err != nil {
		t.Fatalf("building reghd-serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		e := &env{seed: 1, seconds: 1, trace: true, serveBin: bin, size: toySizes()}
		res, err := runOne(context.Background(), w.name, dir, e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		for _, trace := range []bool{false, true} {
			if _, err := res.selected(trace); err != nil {
				t.Error(err)
			}
		}
		if _, err := os.Stat(e.spans); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}
