package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec declares one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesSpecs keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (an untraced run prints exactly these).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"mse", "ratio", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the single-layer metrics a traced run prints. A layer that
// does not run in a workload reports 0 there (README.md maps each metric
// to the workloads it applies to).
var perLayer = []metricSpec{
	{"loadgen.late_p50_us", "us", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.attempted", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},

	{"reghd-serve.rtt_mean_us", "us", "lower", 0},
	{"reghd-serve.self_mean_us", "us", "lower", 0},

	{"registry.predict_mean_us", "us", "lower", 0},
	{"registry.route_mean_us", "us", "lower", 0},
	{"registry.load_mean_ms", "ms", "lower", 0},
	{"registry.hit_ratio", "ratio", "higher", 0},
	{"registry.evictions", "count", "lower", 0},
	{"registry.load_dedup", "count", "higher", 0},

	{"checkpoint.decode_mean_ms", "ms", "lower", 0},
	{"checkpoint.engine_build_mean_ms", "ms", "lower", 0},
	{"checkpoint.save_mean_ms", "ms", "lower", 0},
	{"checkpoint.file_bytes", "bytes", "lower", 0},
	{"checkpoint.deployment_bytes", "bytes", "lower", 0},

	{"engine.predict_mean_us", "us", "lower", 0},
	{"engine.predict_p90_us", "us", "lower", 0},
	{"engine.self_mean_us", "us", "lower", 0},
	{"engine.partialfit_mean_us", "us", "lower", 0},
	{"engine.republish_mean_ms", "ms", "lower", 0},
	{"engine.shed", "count", "lower", 0},

	{"stage.standardize_mean_us", "us", "lower", 0},
	{"stage.encode_mean_us", "us", "lower", 0},
	{"stage.similarity_mean_us", "us", "lower", 0},
	{"stage.readout_mean_us", "us", "lower", 0},
	{"stage.coverage", "ratio", "higher", 0},

	{"train.encode_s", "s", "lower", 0},
	{"train.merge_s", "s", "lower", 0},
	{"train.epoch_mean_s", "s", "lower", 0},
	{"train.epochs", "count", "higher", 0},

	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "KiB/op", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
}

// specByName finds a declared metric.
func specByName(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports. Metrics holds the
// declared metrics; Extra holds what is reported but not declared (tail
// percentiles with their sample counts, validity checks, ...).
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	// Problems lists the output checks that failed.
	Problems []string `json:"problems,omitempty"`
}

func newResult(workload string) *result {
	return &result{
		Workload: workload,
		Metrics:  make(map[string]metric),
		Extra:    make(map[string]metric),
	}
}

// set records a declared metric, taking its unit from the declaration.
func (r *result) set(name string, v float64) {
	s, ok := specByName(name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: s.Unit}
}

// extra records an undeclared, informational value.
func (r *result) extra(name string, v float64, unit string) {
	r.Extra[name] = metric{Value: v, Unit: unit}
}

// count adds operations to the attempted and failed totals.
func (r *result) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// fail records an output check that failed.
func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish settles Correct: every operation succeeded with a correct output
// and every check passed.
func (r *result) finish() {
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// selected returns the metrics an untraced (trace=false) or traced run
// prints, failing if the workload did not measure one of them.
func (r *result) selected(trace bool) (map[string]metric, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", r.Workload, s.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("workload %s measured %s as %v", r.Workload, s.Name, m.Value)
		}
		out[s.Name] = m
	}
	return out, nil
}

// printLines writes every metric and extra as a `workload metric value
// unit` line, declared metrics first, each group sorted by name.
func (r *result) printLines(w io.Writer) {
	for _, group := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, n, group[n].Value, group[n].Unit)
		}
	}
}
