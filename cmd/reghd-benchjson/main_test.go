package main

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: reghd
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEncodeBatch/serial-256rows-n32-D4096         	       4	  51558680 ns/op	 8395220 B/op	     260 allocs/op
BenchmarkEncodeBatch/parallel-256rows-n32-D4096       	       5	  42687944 ns/op	 8395164 B/op	       3 allocs/op
BenchmarkSimilarityK/hamming-naive-k8-D4096           	  418390	       509.9 ns/op
BenchmarkSimilarityK/hamming-fused-k8-D4096           	  565898	       600.0 ns/op
PASS
`

func parseString(t *testing.T, s string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(s)), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func pairFor(t *testing.T, rep *Report, baseline string) Pair {
	t.Helper()
	for _, p := range rep.Pairs {
		if strings.Contains(p.Baseline, baseline) {
			return p
		}
	}
	t.Fatalf("no pair with baseline %q in %+v", baseline, rep.Pairs)
	return Pair{}
}

func TestParsePairsAndRegressionFlag(t *testing.T) {
	rep := parseString(t, sample)
	if len(rep.Pairs) != 2 {
		t.Fatalf("got %d pairs, want 2: %+v", len(rep.Pairs), rep.Pairs)
	}

	enc := pairFor(t, rep, "serial")
	if enc.Regression || enc.Speedup < 1.2 {
		t.Fatalf("serial→parallel pair misclassified: %+v", enc)
	}
	// The sample's fused hamming lane is deliberately slower than naive.
	ham := pairFor(t, rep, "hamming-naive")
	if !ham.Regression || ham.Speedup >= 1.0 {
		t.Fatalf("regressed pair not flagged: %+v", ham)
	}
	if warnRegressions(rep) != 1 {
		t.Fatalf("warnRegressions counted %d, want 1", warnRegressions(rep))
	}
}

func TestParseFoldsCountRunsToFastest(t *testing.T) {
	rep := parseString(t, `BenchmarkX/naive-lane    10   300 ns/op
BenchmarkX/naive-lane    12   200 ns/op
BenchmarkX/fused-lane    50   100 ns/op
`)
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	naive := rep.Results[0]
	if naive.Runs != 2 || naive.NsPerOp != 200 || naive.Iterations != 12 {
		t.Fatalf("fold wrong: %+v", naive)
	}
	p := pairFor(t, rep, "naive")
	if p.Speedup != 2.0 || p.Regression {
		t.Fatalf("pair wrong: %+v", p)
	}
}

// TestParseRecordsGOMAXPROCS pins the context capture: every record
// carries gomaxprocs, from the -N suffix go test stamps on benchmark names
// or "1" when it stamps none, and nproc, so BENCH_*.json records how many
// cores the scaling lanes actually had. Lines that disagree on the suffix
// fail the parse.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	rep := parseString(t, sample)
	if rep.Context["gomaxprocs"] != "1" {
		t.Fatalf("sample has no -N suffixes, got gomaxprocs=%q, want 1", rep.Context["gomaxprocs"])
	}
	if want := strconv.Itoa(runtime.NumCPU()); rep.Context["nproc"] != want {
		t.Fatalf("nproc = %q, want %s", rep.Context["nproc"], want)
	}
	rep = parseString(t, `BenchmarkFitParallel/serial_w1-4    10   300 ns/op
BenchmarkFitParallel/parallel_w1-4  10   305 ns/op
`)
	if rep.Context["gomaxprocs"] != "4" {
		t.Fatalf("gomaxprocs = %q, want 4", rep.Context["gomaxprocs"])
	}
	for _, mixed := range []string{
		"BenchmarkA-4    10   300 ns/op\nBenchmarkB-2    10   300 ns/op\n",
		"BenchmarkA    10   300 ns/op\nBenchmarkB-2    10   300 ns/op\n",
	} {
		if _, err := parse(bufio.NewScanner(strings.NewReader(mixed)), 1.0); err == nil {
			t.Fatalf("disagreeing GOMAXPROCS suffixes parsed without error:\n%s", mixed)
		}
	}
}

// TestParseTolerance pins the -tolerance threshold: a 0.98x near-parity
// pair regresses at the default 1.0 but passes at 0.95 — the gate the
// 1-worker FitParallel parity lane uses on 1-core runners.
func TestParseTolerance(t *testing.T) {
	const parity = `BenchmarkFitParallel/serial_w1    10   1000000 ns/op
BenchmarkFitParallel/parallel_w1  10   1020000 ns/op
`
	strict := parseString(t, parity)
	if p := pairFor(t, strict, "serial_w1"); !p.Regression {
		t.Fatalf("0.98x pair should regress at tolerance 1.0: %+v", p)
	}
	loose, err := parse(bufio.NewScanner(strings.NewReader(parity)), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p := pairFor(t, loose, "serial_w1"); p.Regression {
		t.Fatalf("0.98x pair should pass at tolerance 0.95: %+v", p)
	}
}
