package obs_test

// Doc lint: docs/OBSERVABILITY.md and the exported metric structs must
// agree. The metric namespace is derived by reflection over the json tags
// of reghd.EngineMetrics, obs.HWReport, reghd.RegistryMetrics,
// obs.TrainMetrics, and obs.ReplMetrics (exactly what /metrics serves), so
// adding a field without documenting it — or documenting a metric that no
// longer exists — fails `make metrics-lint` and the ordinary test run.

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"reghd"
	"reghd/internal/obs"
)

// metricPaths walks a struct/map type and returns every leaf metric as a
// dotted path under prefix. Map keys become a `*` placeholder segment.
func metricPaths(t reflect.Type, prefix string, out map[string]bool) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if tag == "" || tag == "-" {
				continue
			}
			metricPaths(f.Type, prefix+"."+tag, out)
		}
	case reflect.Map:
		metricPaths(t.Elem(), prefix+".*", out)
	default:
		out[prefix] = true
	}
}

func codeMetrics() map[string]bool {
	m := map[string]bool{}
	metricPaths(reflect.TypeOf(reghd.EngineMetrics{}), obs.EngineVar, m)
	metricPaths(reflect.TypeOf(obs.HWReport{}), obs.HWVar, m)
	metricPaths(reflect.TypeOf(reghd.RegistryMetrics{}), obs.RegistryVar, m)
	metricPaths(reflect.TypeOf(obs.TrainMetrics{}), obs.TrainVar, m)
	metricPaths(reflect.TypeOf(obs.ReplMetrics{}), obs.ReplVar, m)
	return m
}

var metricNameRE = regexp.MustCompile("`(reghd\\.(?:engine|hw|registry|train|repl)(?:\\.[a-z0-9_*]+)+)`")

func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range metricNameRE.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	code := codeMetrics()
	if len(code) == 0 || len(documented) == 0 {
		t.Fatalf("empty metric sets: %d in code, %d in docs", len(code), len(documented))
	}
	for name := range code {
		if !documented[name] {
			t.Errorf("metric %s exists in code but is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	// A documented name is valid if it is a leaf, or a group reference —
	// a prefix (optionally written with a trailing `.*`) that still has
	// leaves under it.
	isGroup := func(name string) bool {
		prefix := strings.TrimSuffix(name, ".*") + "."
		for leaf := range code {
			if strings.HasPrefix(leaf, prefix) {
				return true
			}
		}
		return false
	}
	for name := range documented {
		if !code[name] && !isGroup(name) {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which no longer exists in code", name)
		}
	}
}

// TestMetricNamespaceShape pins the derived namespace itself: if a rename
// slips through (json tag change), this shows the full diff rather than a
// pile of single-name doclint errors.
func TestMetricNamespaceShape(t *testing.T) {
	code := codeMetrics()
	for _, want := range []string{
		"reghd.engine.predict.p99_ns",
		"reghd.engine.stages.encode.mean_ns",
		"reghd.engine.snapshot.updates_since_publish",
		"reghd.engine.robustness.requests_shed",
		"reghd.engine.robustness.degraded_mode",
		"reghd.engine.robustness.publish_seq",
		"reghd.hw.estimates.*.uj_per_query",
		"reghd.hw.ops.*",
		"reghd.registry.residents",
		"reghd.registry.evictions",
		"reghd.registry.load_errors",
		"reghd.registry.unknown_tenant",
		"reghd.train.runs",
		"reghd.train.shards",
		"reghd.train.merge_ns_total",
		"reghd.train.rows_per_sec",
		"reghd.repl.sends",
		"reghd.repl.retries",
		"reghd.repl.drops",
		"reghd.repl.duplicates",
		"reghd.repl.merges",
		"reghd.repl.delta_bytes_out",
		"reghd.repl.suspect_transitions",
		"reghd.repl.dead_transitions",
	} {
		if !code[want] {
			t.Errorf("expected metric %s missing from derived namespace:\n%s", want, fmt.Sprint(code))
		}
	}
}
