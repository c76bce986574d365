// Command reghd-benchjson turns `go test -bench` output into a JSON record
// of the kernel-layer benchmarks, pairing each baseline lane with its
// optimized counterpart and computing the speedup. `make bench-json` pipes
// the kernel benchmarks through it to produce BENCH_kernels.json — the
// before/after evidence docs/PERFORMANCE.md tracks.
//
// Pairing is by name: within one benchmark, a sub-benchmark whose name
// contains a baseline token (dense, naive, serial) is matched to the lane
// with the corresponding optimized token (packed, fused, parallel) and an
// otherwise identical name. Lanes without a counterpart are still recorded
// as plain results.
//
// With -count=N the N lines per benchmark collapse to the fastest run:
// on a shared machine the minimum is the least-interfered measurement,
// while means/medians fold scheduler noise into the recorded speedups.
//
// Usage:
//
//	go test -run xxx -bench 'Project|Encode|SimilarityK|EnginePredict' . | reghd-benchjson -o BENCH_kernels.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the full benchmark name with the -N GOMAXPROCS suffix removed.
	Name string `json:"name"`
	// Iterations is the measured b.N of the fastest run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the fastest time per operation across -count runs.
	NsPerOp float64 `json:"ns_per_op"`
	// Runs is how many -count repetitions were folded into this result.
	Runs int `json:"runs"`
}

// Pair is a baseline lane matched with its optimized counterpart.
type Pair struct {
	Baseline  string `json:"baseline"`
	Optimized string `json:"optimized"`
	// BaselineNs and OptimizedNs repeat the paired lanes' ns/op.
	BaselineNs  float64 `json:"baseline_ns_per_op"`
	OptimizedNs float64 `json:"optimized_ns_per_op"`
	// Speedup is baseline ns/op divided by optimized ns/op (>1 is faster).
	Speedup float64 `json:"speedup"`
	// Regression marks pairs whose "optimized" lane is slower than its
	// baseline (speedup < 1.0) — the exact failure mode this tool exists to
	// catch. Regressed pairs are warned to stderr and, under
	// -fail-on-regression, fail the run.
	Regression bool `json:"regression,omitempty"`
}

// Report is the BENCH_kernels.json document.
type Report struct {
	// Context lines from the bench output (goos/goarch/pkg/cpu), plus the
	// machine the record was made on: gomaxprocs from the benchmark names'
	// -N suffix ("1" when go test printed none) and nproc, the core count
	// (runtime.NumCPU) of the machine running this tool.
	Context map[string]string `json:"context"`
	Results []Result          `json:"results"`
	Pairs   []Pair            `json:"pairs"`
}

// benchLine matches "BenchmarkName-8   1234   56789 ns/op ..."; the -N
// suffix is go test's GOMAXPROCS stamp, recorded in the context block. go
// test omits it at GOMAXPROCS=1.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op`)

// swaps maps each baseline token to the optimized tokens it may pair with.
var swaps = map[string][]string{
	"dense":  {"packed"},
	"naive":  {"packed", "fused"},
	"serial": {"parallel"},
}

// parse reads `go test -bench` output and pairs lanes; tolerance is the
// regression threshold — a pair regresses when speedup < tolerance (1.0
// means "optimized may not be slower at all"; near-parity pairs such as the
// 1-worker FitParallel lane gate at 0.95). Lines stamped with different
// GOMAXPROCS are an error: one record describes one machine setting.
func parse(r *bufio.Scanner, tolerance float64) (*Report, error) {
	rep := &Report{Context: map[string]string{"nproc": strconv.Itoa(runtime.NumCPU())}}
	byName := map[string]int{}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if m := benchLine.FindStringSubmatch(line); m != nil {
			procs := m[2]
			if procs == "" {
				procs = "1"
			}
			if prev, ok := rep.Context["gomaxprocs"]; ok && prev != procs {
				return nil, fmt.Errorf("benchmark lines disagree on GOMAXPROCS (%s, then %s at %q)", prev, procs, line)
			}
			rep.Context["gomaxprocs"] = procs
			iters, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
			}
			ns, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
			}
			if idx, ok := byName[m[1]]; ok {
				prev := &rep.Results[idx]
				prev.Runs++
				if ns < prev.NsPerOp {
					prev.NsPerOp = ns
					prev.Iterations = iters
				}
			} else {
				byName[m[1]] = len(rep.Results)
				rep.Results = append(rep.Results, Result{Name: m[1], Iterations: iters, NsPerOp: ns, Runs: 1})
			}
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				rep.Context[key] = strings.TrimSpace(v)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for _, res := range rep.Results {
		for base, opts := range swaps {
			if !strings.Contains(res.Name, base) {
				continue
			}
			for _, opt := range opts {
				idx, ok := byName[strings.Replace(res.Name, base, opt, 1)]
				if !ok {
					continue
				}
				counter := rep.Results[idx]
				//lint:ignore floatcmp exact-zero NsPerOp is the missing-benchmark sentinel
				if counter.NsPerOp == 0 {
					continue
				}
				speedup := res.NsPerOp / counter.NsPerOp
				rep.Pairs = append(rep.Pairs, Pair{
					Baseline:    res.Name,
					Optimized:   counter.Name,
					BaselineNs:  res.NsPerOp,
					OptimizedNs: counter.NsPerOp,
					Speedup:     speedup,
					Regression:  speedup < tolerance,
				})
			}
		}
	}
	return rep, nil
}

// warnRegressions reports every regressed pair to stderr and returns how
// many there were.
func warnRegressions(rep *Report) int {
	n := 0
	for _, p := range rep.Pairs {
		if p.Regression {
			n++
			fmt.Fprintf(os.Stderr, "reghd-benchjson: REGRESSION %s is %.2fx vs %s (optimized lane is slower)\n",
				p.Optimized, p.Speedup, p.Baseline)
		}
	}
	return n
}

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output file (- for stdout)")
	failOnRegression := flag.Bool("fail-on-regression", false,
		"exit nonzero when any optimized lane is slower than its baseline")
	tolerance := flag.Float64("tolerance", 1.0,
		"regression threshold: a pair regresses when speedup < tolerance (use 0.95 for near-parity pairs on 1-core runners)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rep, err := parse(sc, *tolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reghd-benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "reghd-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reghd-benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		if warnRegressions(rep) > 0 && *failOnRegression {
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "reghd-benchjson:", err)
		os.Exit(1)
	}
	for _, p := range rep.Pairs {
		fmt.Printf("%-55s %8.0f -> %8.0f ns/op  %.2fx\n", p.Baseline, p.BaselineNs, p.OptimizedNs, p.Speedup)
	}
	fmt.Printf("wrote %s (%d results, %d pairs)\n", *out, len(rep.Results), len(rep.Pairs))
	if n := warnRegressions(rep); n > 0 && *failOnRegression {
		fmt.Fprintf(os.Stderr, "reghd-benchjson: %d regressed pair(s), failing (-fail-on-regression)\n", n)
		os.Exit(1)
	}
}
