// Command benchmark is reghd's end-to-end, layer-attributed benchmark. It
// runs four workloads — serve-hot, serve-churn, train and stream — each in
// its own process, checks that every output is correct, and prints every
// metric as a `workload metric value unit` line followed by one JSON
// object. A traced run (-trace 1) also attributes the time to layers and
// writes the spans it recorded. -compare sets two groups of result files
// side by side. README.md describes the workloads, the metrics and how to
// run it; run.sh builds it and reghd-serve and runs it:
//
//	bash benchmark/run.sh -workload serve-hot -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -seed 1 -out run.json         # all four workloads
//	bash benchmark/run.sh -compare 'a/*.json' 'b/*.json'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// sizes sets how big every workload is. full is what BENCHMARK.json runs;
// the smoke test uses a toy version.
type sizes struct {
	dim          int // hypervector dimension D of every model
	models       int // cluster/model pairs k
	features     int // inputs of the serve tenants and the stream model
	rows         int // training rows of each tenant and of the stream model
	tenantEpochs int // epochs of the tenants' and the stream model's fit
	pool         int // held-out request rows per tenant

	hotTenants, churnTenants int
	hotRate, churnRate       float64 // open-loop requests per second
	warmup                   time.Duration
	openShare                float64 // share of --seconds in the open loop; the rest is closed loop
	closedCap                float64 // closed-loop requests pre-generated per second

	trainEpochs int     // epochs of one FitParallel run in the train workload
	scoreRate   float64 // open-loop test-split predictions per second

	heldOut, streamPool int
	streamUpdatesPerSec float64 // PartialFit updates per second of --seconds
	streamReadRate      float64 // reader predictions per second

	// Set-up runs at least minReps times and until setupMin has passed;
	// the train workload's FitParallel runs at least minReps times too.
	minReps  int
	setupMin time.Duration
}

func fullSizes() sizes {
	return sizes{
		dim: 4096, models: 8, features: 32, rows: 1000, tenantEpochs: 2, pool: 64,
		hotTenants: 8, churnTenants: 12, hotRate: 1000, churnRate: 100,
		warmup: time.Second, openShare: 0.6, closedCap: 20000,
		trainEpochs: 5, scoreRate: 1000,
		heldOut: 500, streamPool: 8000, streamUpdatesPerSec: 3000, streamReadRate: 500,
		minReps: 3, setupMin: 2 * time.Second,
	}
}

// env is one workload run's settings.
type env struct {
	seed     int64
	seconds  float64
	trace    bool
	serveBin string // the reghd-serve binary
	work     string // scratch directory of this run
	spans    string // where a traced run writes its spans
	size     sizes
}

// workloads lists the benchmark's workloads in the order `all` runs them.
var workloads = []struct {
	name string
	run  func(context.Context, *env) (*result, error)
}{
	{"serve-hot", func(ctx context.Context, e *env) (*result, error) {
		return runServe(ctx, e, serveConfig{name: "serve-hot", tenants: e.size.hotTenants, zipfS: 1.2, rate: e.size.hotRate})
	}},
	{"serve-churn", func(ctx context.Context, e *env) (*result, error) {
		return runServe(ctx, e, serveConfig{name: "serve-churn", tenants: e.size.churnTenants, maxResident: 3, rate: e.size.churnRate})
	}},
	{"train", runTrain},
	{"stream", runStream},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "serve-hot, serve-churn, train, stream, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed of every schedule the load generator draws")
	seconds := fs.Int("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: also run the traced pass, print the per-layer metrics and write the spans")
	out := fs.String("out", "", "write the result file (context and every metric) here")
	spans := fs.String("spans", "", "span file of a traced run (default <build>/spans/<workload>-seed<seed>.json)")
	build := fs.String("build", ".bench_build", "directory for binaries and scratch files")
	serveBin := fs.String("serve-bin", "", "reghd-serve binary (default <build>/bin/reghd-serve)")
	compare := fs.Bool("compare", false, "compare two groups of result files: -compare 'a/*.json' 'b/*.json'")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two glob patterns")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if *serveBin == "" {
		*serveBin = filepath.Join(*build, "bin", "reghd-serve")
	}
	e := &env{
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		serveBin: *serveBin,
		spans:    *spans,
		size:     fullSizes(),
	}
	if *workload == "all" {
		return runAll(ctx, args, e, *build, *out, stdout, stderr)
	}
	res, err := runOne(ctx, *workload, *build, e)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 2
	}
	return report(res, e, *out, stdout, stderr)
}

// runOne runs one workload in a scratch directory it removes afterwards.
func runOne(ctx context.Context, name, build string, e *env) (*result, error) {
	var runW func(context.Context, *env) (*result, error)
	for _, w := range workloads {
		if w.name == name {
			runW = w.run
		}
	}
	if runW == nil {
		return nil, errors.New("unknown workload")
	}
	work, err := filepath.Abs(filepath.Join(build, "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e.work = work
	if e.spans == "" {
		e.spans = filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	}
	res, err := runW(ctx, e)
	if err != nil {
		return nil, err
	}
	res.set("loadgen.attempted", float64(res.Attempted))
	res.set("loadgen.failed", float64(res.Failed))
	res.finish()
	return res, nil
}

// report prints a workload's lines and final JSON object, writes its
// result file, and returns the exit code: 0 only if every output was
// correct.
func report(res *result, e *env, out string, stdout, stderr io.Writer) int {
	res.printLines(stdout)
	metrics, err := res.selected(e.trace)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if out != "" {
		if err := writeResults(out, e, []*result{res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", res.Workload, p)
	}
	code := 0
	if !res.Correct {
		code = 1
	}
	return printSummary(stdout, stderr, res.Correct, res.Attempted, res.Failed, metrics, code)
}

// printSummary prints the closing JSON object and returns code, or 2 if
// the object cannot be encoded.
func printSummary(stdout, stderr io.Writer, correct bool, attempted, failed int64, metrics map[string]metric, code int) int {
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// runAll runs every workload in a child process of its own and gathers
// their results.
func runAll(ctx context.Context, args []string, e *env, build, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	var results []*result
	for _, w := range workloads {
		resFile := filepath.Join(build, "results", fmt.Sprintf("%s-%d.json", w.name, os.Getpid()))
		childArgs := append(append([]string{}, args...), "-workload", w.name, "-out", resFile)
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, childArgs...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		// Pass the child's lines on, all but its closing JSON object.
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		rf, err := readResults(resFile)
		os.Remove(resFile)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		results = append(results, rf.Results...)
		if ctx.Err() != nil {
			return 2
		}
	}
	if out != "" {
		if err := writeResults(out, e, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	var attempted, failed int64
	metrics := make(map[string]metric)
	for _, r := range results {
		attempted += r.Attempted
		failed += r.Failed
		if !r.Correct {
			code = 1
		}
		sel, err := r.selected(e.trace)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = 1
		}
		for k, v := range sel {
			metrics[r.Workload+"/"+k] = v
		}
	}
	return printSummary(stdout, stderr, code == 0, attempted, failed, metrics, code)
}

// resultFile is what -out writes: the run's context and every workload's
// result.
type resultFile struct {
	Context map[string]any `json:"context"`
	Results []*result      `json:"results"`
}

func writeResults(path string, e *env, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Context: runContext(e), Results: results}, "", "  ")
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("result file: %w", err)
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("result file %s: %w", path, err)
	}
	return &rf, nil
}

// runContext records what the numbers depend on: the machine, the Go
// version, the commit and the run's settings. reghd-serve inherits the
// benchmark's environment, so both processes run with the same GOMAXPROCS.
func runContext(e *env) map[string]any {
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"gomaxprocs_serve": runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"cpu_model":        cpuModel(),
		"commit":           gitCommit(),
		"seed":             e.seed,
		"seconds":          e.seconds,
		"trace":            e.trace,
		"time":             time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first model name in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the current
// directory, without running git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if commit, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(commit))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if commit, name, ok := strings.Cut(line, " "); ok && name == ref {
			return commit
		}
	}
	return "unknown"
}
