package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"reghd"
	"reghd/internal/synth"
)

// serveConfig is what distinguishes serve-hot from serve-churn.
type serveConfig struct {
	name        string
	tenants     int
	maxResident int     // reghd-serve -max-resident; 0 keeps every tenant resident
	zipfS       float64 // > 1 picks tenants by zipf popularity, otherwise uniformly
	rate        float64 // open-loop arrivals per second
}

// tenant is one checkpoint in the fleet with its held-out request rows and
// the outputs the server must return for them.
type tenant struct {
	name   string
	path   string
	pool   *reghd.Dataset // request rows and their targets, never trained on
	scaler *reghd.Scaler
	ref    []uint64 // Float64bits of the reference prediction per pool row
	req    [][]byte // the rendered POST /predict/{name} per pool row

	saveNS, decodeNS, buildNS []float64
	fileBytes, deployBytes    float64
}

// fleet is the serve workloads' model directory and request material.
type fleet struct {
	dir     string
	tenants []*tenant
	pool    int
}

// op names one request: tenant t, pool row r.
func (f *fleet) op(i int) (t, r int) { return i / f.pool, i % f.pool }

// tenantSpec is the 32-feature dataset shape every tenant (and the stream
// workload's model) is trained on: the ccpp generator's structure with
// more features.
func tenantSpec(s sizes, samples int) synth.Spec {
	spec, err := synth.SpecByName("ccpp")
	if err != nil {
		panic(err) // the generator's own table; cannot fail
	}
	spec.Name = "tenant"
	spec.Features = s.features
	spec.Samples = samples
	return spec
}

// seedFleet trains cfg.tenants pipelines on their own data and saves them
// to dir, as an operator would fill a model directory.
func seedFleet(dir string, s sizes, n int) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seed fleet: %w", err)
	}
	f := &fleet{dir: dir, pool: s.pool}
	for i := 0; i < n; i++ {
		data, err := synth.Generate(tenantSpec(s, s.rows+s.pool), int64(1000+i))
		if err != nil {
			return nil, fmt.Errorf("seed fleet: %w", err)
		}
		train := &reghd.Dataset{Name: "tenant", X: data.X[:s.rows], Y: data.Y[:s.rows]}
		pool := &reghd.Dataset{Name: "tenant", X: data.X[s.rows:], Y: data.Y[s.rows:]}
		enc, err := reghd.NewEncoder(s.features, s.dim, int64(42+i))
		if err != nil {
			return nil, fmt.Errorf("seed fleet: %w", err)
		}
		cfg := reghd.DefaultConfig()
		cfg.Models = s.models
		cfg.Epochs = s.tenantEpochs
		model, err := reghd.NewModel(enc, cfg)
		if err != nil {
			return nil, fmt.Errorf("seed fleet: %w", err)
		}
		pipe := reghd.NewPipeline(model)
		if _, err := pipe.FitParallel(train, 2); err != nil {
			return nil, fmt.Errorf("seed fleet: %w", err)
		}
		t := &tenant{name: fmt.Sprintf("tenant-%02d", i), pool: pool}
		t.path = filepath.Join(dir, t.name+reghd.ModelExt)
		t0 := time.Now()
		if err := pipe.SaveFile(t.path); err != nil {
			return nil, fmt.Errorf("seed fleet: %w", err)
		}
		t.saveNS = append(t.saveNS, float64(time.Since(t0)))
		f.tenants = append(f.tenants, t)
	}
	return f, nil
}

// prepare computes every tenant's reference outputs the way a fresh server
// would — LoadPipelineFile, NewPipelineEngine, Predict — outside any timed
// phase, and renders the requests. The load and engine construction are
// timed reps times per tenant for the checkpoint layer.
func (f *fleet) prepare(reps int) error {
	for _, t := range f.tenants {
		info, err := os.Stat(t.path)
		if err != nil {
			return fmt.Errorf("reference %s: %w", t.name, err)
		}
		t.fileBytes = float64(info.Size())
		var eng *reghd.Engine
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			pipe, err := reghd.LoadPipelineFile(t.path)
			if err != nil {
				return fmt.Errorf("reference %s: %w", t.name, err)
			}
			t1 := time.Now()
			eng, err = reghd.NewPipelineEngine(pipe)
			if err != nil {
				return fmt.Errorf("reference %s: %w", t.name, err)
			}
			t.decodeNS = append(t.decodeNS, float64(t1.Sub(t0)))
			t.buildNS = append(t.buildNS, float64(time.Since(t1)))
			t.scaler = pipe.Scaler()
			t.deployBytes = float64(pipe.Model().DeploymentBytes())
		}
		t.ref = make([]uint64, t.pool.Len())
		t.req = make([][]byte, t.pool.Len())
		for r, x := range t.pool.X {
			y, err := eng.Predict(x)
			if err != nil {
				return fmt.Errorf("reference %s: %w", t.name, err)
			}
			t.ref[r] = math.Float64bits(y)
			body, err := json.Marshal(map[string][]float64{"x": x})
			if err != nil {
				return fmt.Errorf("request %s: %w", t.name, err)
			}
			t.req[r] = postRequest("/predict/"+t.name, body)
		}
	}
	return nil
}

// check reports whether a response carries exactly the reference output
// (bit for bit) and returns the served value.
func (f *fleet) check(op, status int, body []byte, err error) (float64, bool) {
	if err != nil || status != http.StatusOK {
		return 0, false
	}
	var resp struct {
		Y float64 `json:"y"`
	}
	if json.Unmarshal(body, &resp) != nil {
		return 0, false
	}
	t, r := f.op(op)
	return resp.Y, math.Float64bits(resp.Y) == f.tenants[t].ref[r]
}

// serveSchedule is one run's pre-generated traffic; every entry is an op
// index (see fleet.op).
type serveSchedule struct {
	cover    []int // every op once, the warm-up that also yields mse
	warmDue  []time.Duration
	warm     []int
	openDue  []time.Duration
	open     []int
	closed   []int
	openDur  time.Duration
	closeDur time.Duration
}

// newServeSchedule draws the traffic from seed: Poisson arrivals, tenants
// by zipf popularity over a seeded ranking (or uniformly), and each
// tenant's pool rows in a seeded cyclic order.
func newServeSchedule(seed int64, cfg serveConfig, f *fleet, s sizes, seconds float64) *serveSchedule {
	rng := rand.New(rand.NewSource(seed))
	n := len(f.tenants)
	rank := rng.Perm(n)
	var zipf *rand.Zipf
	if cfg.zipfS > 1 && n > 1 {
		zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(n-1))
	}
	rows := make([][]int, n)
	next := make([]int, n)
	for t := range rows {
		rows[t] = rng.Perm(f.pool)
	}
	pick := func() int {
		var t int
		if zipf != nil {
			t = rank[zipf.Uint64()]
		} else {
			t = rank[rng.Intn(n)]
		}
		r := rows[t][next[t]%f.pool]
		next[t]++
		return t*f.pool + r
	}
	picks := func(k int) []int {
		ops := make([]int, k)
		for i := range ops {
			ops[i] = pick()
		}
		return ops
	}
	sc := &serveSchedule{
		cover:    rng.Perm(n * f.pool),
		openDur:  time.Duration(s.openShare * seconds * float64(time.Second)),
		closeDur: time.Duration((1 - s.openShare) * seconds * float64(time.Second)),
	}
	sc.warmDue = poissonArrivals(rng, cfg.rate, s.warmup)
	sc.warm = picks(len(sc.warmDue))
	sc.openDue = poissonArrivals(rng, cfg.rate, sc.openDur)
	sc.open = picks(len(sc.openDue))
	sc.closed = picks(int(s.closedCap * sc.closeDur.Seconds()))
	return sc
}

// httpPass is what one pass of the schedule over HTTP measured.
type httpPass struct {
	cover, warm, open, closed *timing
	served                    []float64 // served output per op, from the cover phase
	openStats, runStats       serverStats
	rssMiB                    float64
}

func (p *httpPass) attempted() int64 {
	return p.cover.ran() + p.warm.ran() + p.open.ran() + p.closed.ran()
}

func (p *httpPass) failed() int64 {
	return p.cover.failed() + p.warm.failed() + p.open.failed() + p.closed.failed()
}

// runHTTP sends the schedule to the server over two keep-alive
// connections: the cover phase, an untimed open-loop warm-up, the timed
// open loop and the timed closed loop.
func (f *fleet) runHTTP(ctx context.Context, srv *server, sc *serveSchedule) (*httpPass, error) {
	conns := []*conn{newConn(srv.addr), newConn(srv.addr)}
	defer conns[0].close()
	defer conns[1].close()
	admin := newConn(srv.addr)
	defer admin.close()
	p := &httpPass{served: make([]float64, len(sc.cover))}
	send := func(ops []int, keep bool) opFunc {
		return func(w, i int) bool {
			t, r := f.op(ops[i])
			status, body, err := conns[w].do(f.tenants[t].req[r])
			y, ok := f.check(ops[i], status, body, err)
			if keep {
				p.served[ops[i]] = y
			}
			return ok
		}
	}
	p.cover = closedLoop(ctx, len(sc.cover), time.Hour, 2, send(sc.cover, true))
	p.warm = openLoop(ctx, sc.warmDue, 2, send(sc.warm, false))
	before, err := admin.stats()
	if err != nil {
		return nil, err
	}
	p.open = openLoop(ctx, sc.openDue, 2, send(sc.open, false))
	afterOpen, err := admin.stats()
	if err != nil {
		return nil, err
	}
	p.closed = closedLoop(ctx, len(sc.closed), sc.closeDur, 2, send(sc.closed, false))
	after, err := admin.stats()
	if err != nil {
		return nil, err
	}
	p.openStats = afterOpen.sub(before)
	p.runStats = after.sub(before)
	if p.rssMiB, err = peakRSSMiB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return p, ctx.Err()
}

// mse is the mean over tenants of the served outputs' squared error on the
// tenant's pool, in standardized target units.
func (f *fleet) mse(served []float64) float64 {
	var sum float64
	for ti, t := range f.tenants {
		var se float64
		for r, y := range t.pool.Y {
			d := t.scaler.ScaleY(served[ti*f.pool+r]) - t.scaler.ScaleY(y)
			se += d * d
		}
		sum += se / float64(t.pool.Len())
	}
	return sum / float64(len(f.tenants))
}

// runServe is the serve-hot and serve-churn workload: a fleet of tenant
// checkpoints served by the real reghd-serve, driven over HTTP.
func runServe(ctx context.Context, e *env, cfg serveConfig) (*result, error) {
	res := newResult(cfg.name)
	s := e.size
	dir := filepath.Join(e.work, "models")
	args := []string{"-models-dir", dir, "-addr", "127.0.0.1:0"}
	if cfg.maxResident > 0 {
		args = append(args, "-max-resident", strconv.Itoa(cfg.maxResident))
	}

	// Set-up is seeding the checkpoints and starting the server until
	// /healthz answers; the last server stays up.
	var (
		f   *fleet
		srv *server
	)
	defer func() { srv.stop() }()
	err := repeatSetup(res, s, func() error {
		var err error
		if f, err = seedFleet(dir, s, cfg.tenants); err != nil {
			return err
		}
		if srv, err = startServer(ctx, e.serveBin, args...); err != nil {
			return err
		}
		c := newConn(srv.addr)
		defer c.close()
		return c.waitHealthy(ctx)
	}, func() { srv.stop() })
	if err != nil {
		return nil, err
	}

	reps := 1
	if e.trace {
		reps = 3
	}
	if err := f.prepare(reps); err != nil {
		return nil, err
	}
	sc := newServeSchedule(e.seed, cfg, f, s, e.seconds)

	p, err := f.runHTTP(ctx, srv, sc)
	if err != nil {
		return nil, err
	}
	res.count(p.attempted(), p.failed())
	reportEndToEnd(res, f, p)
	reportLayers(res, p)
	if !e.trace {
		return res, nil
	}

	// Traced run: the same schedule over HTTP again, then replayed
	// in-process against a Registry on the same directory.
	traced, err := f.runHTTP(ctx, srv, sc)
	if err != nil {
		return nil, err
	}
	res.count(traced.attempted(), traced.failed())
	reportLayers(res, traced)
	res.set("trace.overhead_pct", overheadPct(p.closed.throughput(), traced.closed.throughput()))
	srv.stop()

	inproc, err := f.replay(ctx, res, cfg, sc)
	if err != nil {
		return nil, err
	}
	spans := merge(timingSpans("http", "http.request", traced.open), inproc)
	res.set("reghd-serve.self_mean_us", res.Metrics["reghd-serve.rtt_mean_us"].Value-res.Metrics["registry.predict_mean_us"].Value)
	reportFleetCheckpoints(res, f)
	res.set("engine.partialfit_mean_us", 0)
	res.set("engine.republish_mean_ms", 0)
	reportNoTraining(res)
	return res, writeSpans(e.spans, cfg.name, e.seed, spans)
}

// reportEndToEnd records the end-to-end metrics of an HTTP pass.
func reportEndToEnd(res *result, f *fleet, p *httpPass) {
	reportLatency(res, p.open)
	res.set("throughput_per_s", p.closed.throughput())
	res.set("mse", f.mse(p.served))
	res.set("peak_rss_mb", p.rssMiB)
}

// reportLayers records what an HTTP pass measured of the generator, the
// HTTP layer, the registry counters and the server's runtime.
func reportLayers(res *result, p *httpPass) {
	reportLateness(res, p.open)
	res.set("reghd-serve.rtt_mean_us", mean(p.open.serviceTimes())/1e3)

	st := p.openStats
	hit := 1.0
	if st.Routed > 0 {
		hit = 1 - float64(st.Loads)/float64(st.Routed)
	}
	res.set("registry.hit_ratio", hit)
	res.set("registry.evictions", float64(st.Evictions))
	res.set("registry.load_dedup", float64(st.LoadDedup))

	rt := p.runStats
	ops := float64(p.open.ran() + p.closed.ran())
	res.set("runtime.gc_pause_ms", float64(rt.PauseTotalNs)/1e6)
	res.set("runtime.gc_cycles", float64(rt.NumGC))
	res.set("runtime.alloc_kb_per_op", float64(rt.TotalAlloc)/1024/ops)
}

// reportLatency records the latency quantiles of an open-loop phase, each
// request timed from its due time.
func reportLatency(res *result, t *timing) {
	lat := t.latencies()
	res.set("latency_p50_ms", quantile(lat, 0.50)/1e6)
	res.set("latency_p90_ms", quantile(lat, 0.90)/1e6)
	res.extra("latency_p99_ms", quantile(lat, 0.99)/1e6, "ms")
	res.extra("latency_p999_ms", quantile(lat, 0.999)/1e6, "ms")
	res.extra("latency.samples", float64(len(lat)), "count")
}

// reportLateness records how late the generator sent an open-loop phase's
// requests, alone and as a share of the median latency.
func reportLateness(res *result, t *timing) {
	late := t.lateness()
	res.set("loadgen.late_p50_us", quantile(late, 0.50)/1e3)
	res.set("loadgen.late_p99_us", quantile(late, 0.99)/1e3)
	res.extra("loadgen.late_share", quantile(late, 0.50)/quantile(t.latencies(), 0.50), "ratio")
}

// replay runs the open-loop schedule in-process against a Registry over the
// same directory and budget, with engine metrics on, on one worker so every
// span is attributed exactly. A request's span runs from its due time to
// its completion; its children are registry.route (registry.load when the
// call loaded the tenant) and engine.predict.
func (f *fleet) replay(ctx context.Context, res *result, cfg serveConfig, sc *serveSchedule) (*tracer, error) {
	reg, err := reghd.NewRegistry(reghd.RegistryConfig{
		Dir:           f.dir,
		MaxResident:   cfg.maxResident,
		MaxInFlight:   256, // reghd-serve's defaults
		PublishEvery:  reghd.DefaultPublishEvery,
		EngineMetrics: true,
	})
	if err != nil {
		return nil, err
	}
	var st stageTotals
	held := make([]*reghd.Engine, len(f.tenants))
	n := len(sc.open)
	routeAt, predictAt, endAt := make([]time.Time, n), make([]time.Time, n), make([]time.Time, n)
	loaded := make([]bool, n)
	t := openLoop(ctx, sc.openDue, 1, func(_, i int) bool {
		ti, r := f.op(sc.open[i])
		name := f.tenants[ti].name
		_, resident := reg.Resident(name)
		loaded[i] = !resident
		routeAt[i] = time.Now()
		eng, err := reg.Engine(name)
		predictAt[i] = time.Now()
		if err != nil {
			endAt[i] = predictAt[i]
			return false
		}
		y, err := eng.PredictCtx(ctx, f.tenants[ti].pool.X[r])
		endAt[i] = time.Now()
		// An engine's metrics die with it: fold them in once the registry
		// has replaced it, and at the end.
		if held[ti] != eng {
			st.add(held[ti])
			held[ti] = eng
		}
		return err == nil && math.Float64bits(y) == f.tenants[ti].ref[r]
	})
	for _, eng := range held {
		st.add(eng)
	}
	res.count(t.ran(), t.failed())

	tr := &tracer{pass: "inproc"}
	rel := func(at time.Time) int64 { return int64(at.Sub(t.start)) }
	var calls []float64
	for i, sent := range t.sent {
		if sent < 0 {
			continue
		}
		root := tr.add("request", int64(i), -1, t.due[i], rel(endAt[i]))
		route := "registry.route"
		if loaded[i] {
			route = "registry.load"
		}
		tr.add(route, int64(i), root, rel(routeAt[i]), rel(predictAt[i]))
		tr.add("engine.predict", int64(i), root, rel(predictAt[i]), rel(endAt[i]))
		calls = append(calls, float64(endAt[i].Sub(routeAt[i])))
	}
	spans := tr.spans
	res.set("registry.predict_mean_us", mean(calls)/1e3)
	res.set("registry.route_mean_us", mean(durations(spans, "registry.route"))/1e3)
	res.set("registry.load_mean_ms", mean(durations(spans, "registry.load"))/1e6)
	res.extra("request.self_p50_us", quantile(selfTimes(spans, "request"), 0.50)/1e3, "us")
	st.report(res, durations(spans, "engine.predict"))
	return tr, ctx.Err()
}

// reportFleetCheckpoints records the checkpoint layer over every tenant.
func reportFleetCheckpoints(res *result, f *fleet) {
	var save, decode, build []float64
	var file, deploy float64
	for _, t := range f.tenants {
		save = append(save, t.saveNS...)
		decode = append(decode, t.decodeNS...)
		build = append(build, t.buildNS...)
		file += t.fileBytes
		deploy += t.deployBytes
	}
	n := float64(len(f.tenants))
	reportCheckpoint(res, save, decode, build, file/n, deploy/n)
}

// reportCheckpoint records the checkpoint layer from timed calls.
func reportCheckpoint(res *result, saveNS, decodeNS, buildNS []float64, fileBytes, deployBytes float64) {
	res.set("checkpoint.save_mean_ms", mean(saveNS)/1e6)
	res.set("checkpoint.decode_mean_ms", mean(decodeNS)/1e6)
	res.set("checkpoint.engine_build_mean_ms", mean(buildNS)/1e6)
	res.set("checkpoint.file_bytes", fileBytes)
	res.set("checkpoint.deployment_bytes", deployBytes)
}

// overheadPct is how much slower the traced pass ran, in percent of the
// untraced throughput.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}
