// Command reghd-serve is the serving server. It runs in one of two modes:
//
// Single-model (default): trains a RegHD pipeline on a synthetic evaluation
// dataset, wraps it in a concurrent serving engine with full
// instrumentation, and exposes the serving stack over HTTP so an operator
// can watch (and profile) it live:
//
//	GET  /metrics       expvar JSON: latency histograms, throughput,
//	                    snapshot staleness, per-stage timing, and live
//	                    hardware cost estimates (reghd.engine / reghd.hw)
//	GET  /debug/pprof/  net/http/pprof profiles of the running server
//	GET  /debug/vars    stdlib expvar endpoint (same JSON as /metrics)
//	POST /predict       {"x":[...]} -> {"y":...} one prediction
//	                    400 on invalid input, 413 on a body over
//	                    httpx.MaxBodyBytes, 429 when shed by the
//	                    admission gate, 504 on deadline expiry
//	GET  /healthz       liveness probe; reports "degraded" (still 200,
//	                    last known-good snapshot keeps serving) when a
//	                    writer failure put the engine in degraded mode
//
// By default it also generates its own traffic — reader goroutines issuing
// predictions and a writer streaming PartialFit updates through concept
// drift — so /metrics shows a serving system under load the moment the
// process is up. Disable with -traffic=false to drive it externally.
// docs/OBSERVABILITY.md walks through a curl + go tool pprof session
// against this server.
//
// Multi-model (-models-dir): serves a whole directory of tenant
// checkpoints through a reghd.Registry — lazy hot-loads on first request,
// LRU eviction under -max-resident / -max-resident-bytes, per-tenant
// admission gates, /predict/{model} routing, a /models catalog, per-tenant
// /healthz/{model}, and the reghd.registry.* fleet metrics on /metrics
// (see fleet.go and docs/SERVING.md). -seed-models N trains N small tenant
// models into the directory first; `bash benchmark/run.sh` measures a fleet
// served this way end to end.
//
// Both modes read /predict bodies with httpx.DecodeRow and listen through
// httpx.NewServer (a header-read timeout, no idle timeout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os/signal"
	"syscall"
	"time"

	"reghd"
	"reghd/internal/httpx"
	"reghd/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address (host:0 picks an ephemeral port, printed at startup)")
		synthName    = flag.String("synth", "ccpp", "synthetic training dataset")
		dim          = flag.Int("dim", 2000, "hypervector dimensionality D")
		models       = flag.Int("models", 8, "number of cluster/model pairs k")
		epochs       = flag.Int("epochs", 5, "training epochs before serving")
		publishEvery = flag.Int("publish-every", 64, "PartialFit updates between snapshot publications")
		traffic      = flag.Bool("traffic", true, "generate synthetic reader/writer load")
		maxInFlight  = flag.Int("max-inflight", 256, "bounded in-flight prediction limit, 0 = unlimited")
		reqTimeout   = flag.Duration("request-timeout", 2*time.Second, "per-request prediction deadline, 0 = none")

		modelsDir        = flag.String("models-dir", "", "multi-model mode: serve every *.gob tenant checkpoint in this directory via /predict/{model}")
		maxResident      = flag.Int("max-resident", 0, "multi-model: LRU budget on resident tenant engines, 0 = unlimited")
		maxResidentBytes = flag.Int64("max-resident-bytes", 0, "multi-model: LRU budget on summed resident model deployment bytes, 0 = unlimited")
		seedModels       = flag.Int("seed-models", 0, "multi-model: train this many small tenant models into -models-dir before serving (no-op for tenants already present)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("reghd-serve: ")

	if *modelsDir != "" {
		if err := runFleet(fleetOptions{
			addr:             *addr,
			dir:              *modelsDir,
			maxResident:      *maxResident,
			maxResidentBytes: *maxResidentBytes,
			maxInFlight:      *maxInFlight,
			publishEvery:     *publishEvery,
			reqTimeout:       *reqTimeout,
			seedModels:       *seedModels,
			seedSynth:        *synthName,
			seedDim:          *dim,
			seedK:            *models,
			seedEpochs:       *epochs,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	data, err := reghd.SyntheticDataset(*synthName, 1)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := data.Split(rng, 0.25)
	if err != nil {
		log.Fatal(err)
	}

	enc, err := reghd.NewEncoder(data.Features(), *dim, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = *models
	cfg.Epochs = *epochs
	model, err := reghd.NewModel(enc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	pipe := reghd.NewPipeline(model)
	log.Printf("training on %s (%d samples, %d features, D=%d, k=%d)...",
		*synthName, train.Len(), data.Features(), *dim, *models)
	t0 := time.Now()
	if _, err := pipe.Fit(train); err != nil {
		log.Fatal(err)
	}
	mse, err := pipe.Evaluate(test)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trained in %v, test MSE %.4f", time.Since(t0).Round(time.Millisecond), mse)

	engine, err := reghd.NewPipelineEngine(pipe)
	if err != nil {
		log.Fatal(err)
	}
	engine.SetPublishEvery(*publishEvery)
	engine.SetMaxInFlight(*maxInFlight)
	engine.EnableMetrics()
	ops := engine.EnableOpCounting()

	// Live hardware view: the op counts of the actually-served traffic,
	// priced on the paper's two targets, amortized per served prediction.
	bridge, err := obs.NewHWBridge(ops, reghd.FPGAProfile(), reghd.ARMProfile())
	if err != nil {
		log.Fatal(err)
	}
	bridge.SetQueries(func() uint64 {
		m := engine.Metrics()
		return m.Predict.Count + m.PredictBatchRows
	})

	obs.Publish(obs.EngineVar, func() any { return engine.Metrics() })
	obs.Publish(obs.HWVar, func() any {
		r, err := bridge.Report()
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return r
	})

	stopTraffic := make(chan struct{})
	if *traffic {
		startTraffic(engine, test, stopTraffic)
		log.Printf("synthetic traffic on (readers + PartialFit writer); disable with -traffic=false")
	}

	http.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degraded mode still serves (last known-good snapshot), so the
		// probe stays 200; the body and the degraded_mode gauge carry the
		// signal for alerting.
		if engine.Degraded() {
			fmt.Fprintln(w, "degraded")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	http.Handle("/metrics", obs.Handler())
	http.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		x, err := httpx.DecodeRow(w, r)
		if err != nil {
			return
		}
		ctx := r.Context()
		if *reqTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *reqTimeout)
			defer cancel()
		}
		y, err := engine.PredictCtx(ctx, x)
		if err != nil {
			http.Error(w, err.Error(), predictStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]float64{"y": y})
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	served := ln.Addr().String()
	log.Printf("serving on http://%s — try:", served)
	log.Printf("  curl -s http://%s/metrics | head", served)
	log.Printf(`  curl -s -d '{"x":[14.96,41.76,1024.07,73.17]}' http://%s/predict`, served)
	log.Printf("  go tool pprof http://%s/debug/pprof/profile?seconds=10", served)

	// Serve until SIGINT/SIGTERM, then stop the traffic goroutines and
	// drain in-flight requests — the demo load shares the server's
	// lifetime instead of leaking past it.
	srv := httpx.NewServer(http.DefaultServeMux)
	sigCtx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSig()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-sigCtx.Done()
		log.Printf("shutting down")
		close(stopTraffic)
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	err = srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
}

// fleetOptions carries the multi-model mode's flag values.
type fleetOptions struct {
	addr             string
	dir              string
	maxResident      int
	maxResidentBytes int64
	maxInFlight      int
	publishEvery     int
	reqTimeout       time.Duration
	seedModels       int
	seedSynth        string
	seedDim          int
	seedK            int
	seedEpochs       int
}

// runFleet is the multi-model serving path: optional fleet seeding, then a
// registry-routed HTTP server (see fleet.go).
func runFleet(opt fleetOptions) error {
	if opt.seedModels > 0 {
		if _, err := seedFleet(opt.dir, opt.seedSynth, opt.seedModels, opt.seedDim, opt.seedK, opt.seedEpochs); err != nil {
			return err
		}
	}
	reg, err := reghd.NewRegistry(reghd.RegistryConfig{
		Dir:              opt.dir,
		MaxResident:      opt.maxResident,
		MaxResidentBytes: opt.maxResidentBytes,
		MaxInFlight:      opt.maxInFlight,
		PublishEvery:     opt.publishEvery,
	})
	if err != nil {
		return err
	}
	tenants, err := reg.Tenants()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	served := ln.Addr().String()
	log.Printf("fleet mode: %d tenants in %s (resident budget %d models / %d bytes)",
		len(tenants), opt.dir, opt.maxResident, opt.maxResidentBytes)
	log.Printf("serving on http://%s — try:", served)
	log.Printf("  curl -s http://%s/models", served)
	if len(tenants) > 0 {
		log.Printf(`  curl -s -d '{"x":[...]}' http://%s/predict/%s`, served, tenants[0])
	}
	log.Printf("  bash benchmark/run.sh --workload serve-hot   (measures a served fleet end to end)")
	return httpx.NewServer(fleetMux(reg, opt.reqTimeout)).Serve(ln)
}

// predictStatus maps the serving stack's typed errors onto HTTP status
// codes — the engine's request errors plus the registry's routing errors.
func predictStatus(err error) int {
	var pe *reghd.PanicError
	switch {
	case errors.Is(err, reghd.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, reghd.ErrModelLoad):
		return http.StatusServiceUnavailable
	case errors.Is(err, reghd.ErrInvalidInput):
		return http.StatusBadRequest
	case errors.Is(err, reghd.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// startTraffic launches the synthetic load: two reader goroutines issuing
// single predictions, one issuing small batches, and a writer streaming
// PartialFit updates drawn from a fresh synthetic stream — enough activity
// that every metric (latency quantiles, throughput, snapshot age, publish
// counts, hardware estimates) is non-trivial within a second of startup.
// Every goroutine exits when stop closes (server shutdown).
func startTraffic(engine *reghd.Engine, test *reghd.Dataset, stop <-chan struct{}) {
	for r := 0; r < 2; r++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			t := time.NewTicker(2 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if _, err := engine.Predict(test.X[rng.Intn(len(test.X))]); err != nil {
					log.Printf("reader: %v", err)
				}
			}
		}(100 + int64(r))
	}
	go func() {
		rng := rand.New(rand.NewSource(200))
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			lo := rng.Intn(len(test.X) - 16)
			if _, err := engine.PredictBatch(test.X[lo : lo+16]); err != nil {
				log.Printf("batch reader: %v", err)
			}
		}
	}()
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if err := engine.PartialFit(test.X[i%len(test.X)], test.Y[i%len(test.Y)]); err != nil {
				log.Printf("writer: %v", err)
			}
		}
	}()
}
