package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"reghd"
	"reghd/internal/httpx"
	"reghd/internal/obs"
)

// This file is reghd-serve's multi-model (fleet) mode: a reghd.Registry
// routing /predict/{model} requests across a directory of tenant
// checkpoints, with lazy loads, LRU eviction under -max-resident /
// -max-resident-bytes, per-tenant health, and the reghd.registry.* fleet
// metrics on /metrics. docs/SERVING.md documents the architecture;
// `bash benchmark/run.sh` measures it end to end.

// fleetMux builds the multi-model HTTP surface over a registry:
//
//	POST /predict/{model}   {"x":[...]} -> {"y":...}; 404 unknown tenant,
//	                        503 model load failure, 413 body over
//	                        httpx.MaxBodyBytes, plus the single-model
//	                        mappings (400/429/504)
//	GET  /models            JSON tenant catalog with residency and arity
//	GET  /healthz           fleet liveness (always "ok" once serving)
//	GET  /healthz/{model}   per-tenant: "ok" | "degraded" | "idle" (not
//	                        resident; 200 — idle tenants are servable), or
//	                        404 for unknown tenants
//	GET  /metrics           expvar JSON incl. reghd.registry.* and, for
//	                        resident engines, reghd.engine.* of the last
//	                        published engine var
func fleetMux(reg *reghd.Registry, reqTimeout time.Duration) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /predict/{model}", func(w http.ResponseWriter, r *http.Request) {
		x, err := httpx.DecodeRow(w, r)
		if err != nil {
			return
		}
		ctx := r.Context()
		if reqTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, reqTimeout)
			defer cancel()
		}
		y, err := reg.PredictCtx(ctx, r.PathValue("model"), x)
		if err != nil {
			http.Error(w, err.Error(), predictStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]float64{"y": y})
	})

	type modelInfo struct {
		Name     string `json:"name"`
		Resident bool   `json:"resident"`
		// Features is the model's input arity; -1 until the model has been
		// loaded (the catalog never forces a load).
		Features int `json:"features"`
	}
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		names, err := reg.Tenants()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		infos := make([]modelInfo, 0, len(names))
		for _, n := range names {
			_, resident := reg.Resident(n)
			infos = append(infos, modelInfo{Name: n, Resident: resident, Features: reg.Features(n)})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"models":  infos,
			"metrics": reg.Metrics(),
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /healthz/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("model")
		if !reg.Known(tenant) {
			http.Error(w, "unknown tenant", http.StatusNotFound)
			return
		}
		eng, resident := reg.Resident(tenant)
		switch {
		case !resident:
			// Not resident is healthy: the next request hot-loads it.
			fmt.Fprintln(w, "idle")
		case eng.Degraded():
			// Degraded still serves (last known-good snapshot), so the
			// probe stays 200; the body carries the alerting signal.
			fmt.Fprintln(w, "degraded")
		default:
			fmt.Fprintln(w, "ok")
		}
	})

	mux.Handle("GET /metrics", obs.Handler())
	// net/http/pprof registers on the default mux (imported by main.go).
	mux.Handle("/debug/", http.DefaultServeMux)
	return mux
}

// seedFleet trains count tenant models into dir (tenant-00.gob ...),
// each with a distinct encoder seed so the tenants are genuinely different
// models of the same task. Existing files are kept, so re-seeding an
// already-seeded directory is a no-op. Returns the tenant names.
func seedFleet(dir, synth string, count, dim, models, epochs int) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		names = append(names, name)
		path := filepath.Join(dir, name+reghd.ModelExt)
		if _, err := os.Stat(path); err == nil {
			continue
		}
		data, err := reghd.SyntheticDataset(synth, int64(1000+i))
		if err != nil {
			return nil, err
		}
		enc, err := reghd.NewEncoder(data.Features(), dim, int64(42+i))
		if err != nil {
			return nil, err
		}
		cfg := reghd.DefaultConfig()
		cfg.Models = models
		cfg.Epochs = epochs
		model, err := reghd.NewModel(enc, cfg)
		if err != nil {
			return nil, err
		}
		pipe := reghd.NewPipeline(model)
		if _, err := pipe.Fit(data); err != nil {
			return nil, fmt.Errorf("seed %s: %w", name, err)
		}
		if err := pipe.SaveFile(path); err != nil {
			return nil, err
		}
		log.Printf("seeded %s (%s, n=%d, D=%d, k=%d)", path, synth, data.Features(), dim, models)
	}
	return names, nil
}
