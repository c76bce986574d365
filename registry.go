package reghd

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"reghd/internal/core"
	"reghd/internal/obs"
)

// This file is the multi-tenant model registry: a fleet of serving Engines
// behind one router. A Registry owns a model directory where every tenant is
// one checkpoint file (<dir>/<tenant>.gob, written by Pipeline.SaveFile or
// Model.SaveFile), hot-loads a tenant's engine on its first request, routes
// subsequent requests to the resident engine, and evicts least-recently-used
// tenants when a resident-model or resident-byte budget is exceeded — the
// shape "thousands of tenant models behind one process" needs, where
// per-tenant memory (not compute) is the scaling wall. docs/SERVING.md is
// the architecture document.
//
// Concurrency contract:
//
//   - Routing (Engine, Predict, PredictCtx) is safe from any number of
//     goroutines; the registry lock covers only map/LRU bookkeeping, never
//     a model load and never a prediction.
//   - Loads are deduplicated: concurrent first requests for the same tenant
//     perform one file load; the others wait for it (singleflight).
//   - Eviction is safe under in-flight traffic: an evicted *Engine stays
//     fully serviceable for callers that already hold it (its snapshot,
//     scratch pools, and gates are self-contained); eviction only removes
//     the registry's reference so the next request reloads from disk.
//     TestRegistryEvictionInFlightStress races all three.

// ErrUnknownTenant is the sentinel wrapped by registry routing when the
// tenant key has no checkpoint file in the model directory (or is not a
// valid tenant name). Map it to a 404-class response. Unknown tenants are
// not negatively cached: uploading <dir>/<tenant>.gob makes the tenant
// servable on its next request.
var ErrUnknownTenant = errors.New("reghd: unknown tenant")

// ErrModelLoad is the sentinel wrapped by registry routing when a tenant's
// checkpoint file exists but cannot be loaded into a serving engine (it
// also wraps the underlying cause, e.g. ErrCorruptModel). Map it to a
// 503-class response: the tenant exists but is not currently servable.
// Load failures are not cached; a repaired file loads on the next request.
var ErrModelLoad = errors.New("reghd: model load failed")

// ModelExt is the checkpoint filename extension the registry serves: tenant
// key t maps to <Dir>/<t>.gob. The extension is historical; the content is
// the framed, checksummed checkpoint Model.Save and Pipeline.Save write.
const ModelExt = ".gob"

// RegistryConfig configures NewRegistry.
type RegistryConfig struct {
	// Dir is the model directory. Every *.gob file in it is one tenant,
	// keyed by filename without extension; files may be pipeline
	// checkpoints (Pipeline.SaveFile — served in original target units) or
	// bare model checkpoints (Model.SaveFile).
	Dir string
	// MaxResident bounds how many tenant engines stay resident; exceeding
	// it evicts least-recently-used tenants (never below one). <= 0 means
	// unlimited.
	MaxResident int
	// MaxResidentBytes bounds the summed model deployment bytes
	// (Model.DeploymentBytes) of resident tenants, same LRU policy. <= 0
	// means unlimited. Both budgets may be set; eviction runs until both
	// hold.
	MaxResidentBytes int64
	// MaxInFlight, when > 0, is applied to every loaded engine
	// (Engine.SetMaxInFlight): the per-tenant admission gate. One tenant
	// saturating its gate sheds its own requests (ErrOverloaded) without
	// starving siblings.
	MaxInFlight int
	// PublishEvery, when non-zero, is applied to every loaded engine
	// (Engine.SetPublishEvery) for embedders that stream PartialFit
	// updates through Engine().
	PublishEvery int
	// EngineMetrics enables the full latency instrumentation
	// (Engine.EnableMetrics) on every loaded engine. The registry's own
	// fleet counters (reghd.registry.*) are always on regardless.
	EngineMetrics bool
}

// registryStats are the always-on fleet counters (metric namespace
// reghd.registry.*, see docs/OBSERVABILITY.md).
type registryStats struct {
	loads         atomic.Uint64
	loadDedup     atomic.Uint64
	loadErrors    atomic.Uint64
	evictions     atomic.Uint64
	routed        atomic.Uint64
	unknownTenant atomic.Uint64
}

// RegistryMetrics is the fleet counter block, published under the
// reghd.registry expvar variable (see docs/OBSERVABILITY.md). Like the
// engine's robustness counters these are recorded always.
type RegistryMetrics struct {
	// Residents is the number of tenant engines currently resident.
	Residents int `json:"residents"`
	// ResidentBytes is the summed deployment bytes of resident models.
	ResidentBytes int64 `json:"resident_bytes"`
	// MaxResident is the configured resident-model budget (0 = unlimited).
	MaxResident int `json:"max_resident"`
	// MaxResidentBytes is the configured resident-byte budget (0 =
	// unlimited).
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	// Loads counts checkpoint files actually loaded into engines.
	Loads uint64 `json:"loads"`
	// LoadDedup counts requests that piggybacked on a concurrent load of
	// the same tenant instead of loading themselves (singleflight hits).
	LoadDedup uint64 `json:"load_dedup"`
	// Evictions counts tenants evicted by the LRU budget or Evict.
	Evictions uint64 `json:"evictions"`
	// LoadErrors counts failed checkpoint loads (ErrModelLoad).
	LoadErrors uint64 `json:"load_errors"`
	// Routed counts requests successfully routed to a tenant engine.
	Routed uint64 `json:"routed"`
	// UnknownTenant counts requests rejected because no checkpoint file
	// exists for the tenant key (ErrUnknownTenant).
	UnknownTenant uint64 `json:"unknown_tenant"`
}

// tenantEntry is one resident tenant.
type tenantEntry struct {
	name     string
	eng      *Engine
	bytes    int64
	features int
	elem     *list.Element // position in the LRU list; value is *tenantEntry
}

// loadCall is one in-progress checkpoint load that concurrent requests for
// the same tenant wait on.
type loadCall struct {
	done chan struct{}
	eng  *Engine
	err  error
}

// Registry routes requests to a fleet of tenant Engines hot-loaded from a
// model directory, evicting least-recently-used tenants under a configured
// residency budget. Construct with NewRegistry; all methods are safe for
// concurrent use.
type Registry struct {
	cfg RegistryConfig

	mu       sync.Mutex
	resident map[string]*tenantEntry
	lru      *list.List // front = most recently used
	loading  map[string]*loadCall
	bytes    int64

	stats registryStats
}

// NewRegistry opens a registry over cfg.Dir and publishes the fleet
// counters under the reghd.registry expvar variable (obs.Publish — visible
// on any /metrics endpoint mounted from obs.Handler). No models are loaded
// until their first request.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	info, err := os.Stat(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("reghd: registry dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("reghd: registry dir %q is not a directory", cfg.Dir)
	}
	r := &Registry{
		cfg:      cfg,
		resident: make(map[string]*tenantEntry),
		lru:      list.New(),
		loading:  make(map[string]*loadCall),
	}
	obs.Publish(obs.RegistryVar, func() any { return r.Metrics() })
	return r, nil
}

// ValidTenant reports whether name is a servable tenant key: non-empty,
// no path separators or traversal, no leading dot, and no embedded NUL —
// exactly the names the registry will resolve to <dir>/<name>.gob.
func ValidTenant(name string) bool {
	if name == "" || len(name) > 255 {
		return false
	}
	if strings.HasPrefix(name, ".") {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

// Engine routes one tenant key to its serving engine, hot-loading the
// checkpoint on first request and marking the tenant most-recently-used.
// The returned engine stays valid even if the tenant is evicted afterwards
// — holders keep serving from it; new requests reload. Errors wrap
// ErrUnknownTenant (no such checkpoint) or ErrModelLoad (checkpoint exists
// but is unservable).
func (r *Registry) Engine(tenant string) (*Engine, error) {
	if !ValidTenant(tenant) {
		r.stats.unknownTenant.Add(1)
		return nil, fmt.Errorf("%w: invalid tenant key %q", ErrUnknownTenant, tenant)
	}
	r.mu.Lock()
	if e, ok := r.resident[tenant]; ok {
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.stats.routed.Add(1)
		return e.eng, nil
	}
	if lc, ok := r.loading[tenant]; ok {
		r.mu.Unlock()
		r.stats.loadDedup.Add(1)
		<-lc.done
		if lc.err != nil {
			return nil, lc.err
		}
		r.stats.routed.Add(1)
		return lc.eng, nil
	}
	lc := &loadCall{done: make(chan struct{})}
	r.loading[tenant] = lc
	r.mu.Unlock()

	lc.eng, lc.err = r.load(tenant)

	r.mu.Lock()
	delete(r.loading, tenant)
	close(lc.done)
	r.mu.Unlock()
	if lc.err != nil {
		return nil, lc.err
	}
	r.stats.routed.Add(1)
	return lc.eng, nil
}

// load reads one tenant checkpoint, builds its engine, installs it as
// most-recently-used, and evicts down to the budgets. Called without the
// registry lock (file IO and engine construction must not block routing).
func (r *Registry) load(tenant string) (*Engine, error) {
	path := filepath.Join(r.cfg.Dir, tenant+ModelExt)
	if _, err := os.Stat(path); err != nil {
		r.stats.unknownTenant.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	eng, bytes, err := loadEngineFile(path)
	if err != nil {
		r.stats.loadErrors.Add(1)
		return nil, fmt.Errorf("%w: tenant %q: %w", ErrModelLoad, tenant, err)
	}
	if r.cfg.MaxInFlight > 0 {
		eng.SetMaxInFlight(r.cfg.MaxInFlight)
	}
	if r.cfg.PublishEvery != 0 {
		eng.SetPublishEvery(r.cfg.PublishEvery)
	}
	if r.cfg.EngineMetrics {
		eng.EnableMetrics()
	}
	e := &tenantEntry{name: tenant, eng: eng, bytes: bytes, features: eng.Features()}

	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.resident[tenant]; ok {
		// A racing install beat us: keep the installed engine and drop ours
		// so all routed callers converge on one.
		r.lru.MoveToFront(prev.elem)
		return prev.eng, nil
	}
	r.stats.loads.Add(1)
	e.elem = r.lru.PushFront(e)
	r.resident[tenant] = e
	r.bytes += e.bytes
	r.evictLocked()
	return eng, nil
}

// loadEngineFile builds a serving engine from one checkpoint file, decoded
// once: a pipeline checkpoint (model + scaler, served in original units)
// or a bare model checkpoint. Returns the engine and the model's deployment
// bytes — the quantity the byte budget accounts.
func loadEngineFile(path string) (*Engine, int64, error) {
	m, sc, err := core.LoadCheckpointFile(path)
	if err != nil {
		return nil, 0, err
	}
	eng, err := NewEngine(m)
	if err != nil {
		return nil, 0, err
	}
	eng.scaler = sc
	return eng, int64(m.DeploymentBytes()), nil
}

// evictLocked removes least-recently-used tenants until both budgets hold,
// never evicting the last resident (a budget smaller than one model still
// serves, one model at a time). Callers must hold r.mu.
func (r *Registry) evictLocked() {
	over := func() bool {
		if r.cfg.MaxResident > 0 && r.lru.Len() > r.cfg.MaxResident {
			return true
		}
		return r.cfg.MaxResidentBytes > 0 && r.bytes > r.cfg.MaxResidentBytes
	}
	for r.lru.Len() > 1 && over() {
		r.removeLocked(r.lru.Back().Value.(*tenantEntry))
	}
}

// removeLocked drops one resident entry and counts the eviction. Callers
// must hold r.mu. The evicted engine keeps serving for in-flight holders —
// its snapshot, scratch pools, and gates are self-contained and it owns no
// goroutine — so dropping the reference is the whole eviction.
func (r *Registry) removeLocked(e *tenantEntry) {
	r.lru.Remove(e.elem)
	delete(r.resident, e.name)
	r.bytes -= e.bytes
	r.stats.evictions.Add(1)
}

// Evict removes one tenant's resident engine, reporting whether it was
// resident. In-flight requests on the evicted engine complete normally;
// the next request for the tenant reloads from disk.
func (r *Registry) Evict(tenant string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.resident[tenant]
	if ok {
		r.removeLocked(e)
	}
	return ok
}

// EvictAll removes every resident engine (counting each as an eviction),
// e.g. to force a fleet-wide reload after replacing checkpoint files.
func (r *Registry) EvictAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.lru.Len() > 0 {
		r.removeLocked(r.lru.Back().Value.(*tenantEntry))
	}
}

// Predict routes one prediction to tenant's engine (hot-loading it if
// needed). Equivalent to Engine(tenant) followed by Engine.Predict.
func (r *Registry) Predict(tenant string, x []float64) (float64, error) {
	return r.PredictCtx(context.Background(), tenant, x)
}

// PredictCtx is Predict with a deadline, routed to Engine.PredictCtx.
func (r *Registry) PredictCtx(ctx context.Context, tenant string, x []float64) (float64, error) {
	eng, err := r.Engine(tenant)
	if err != nil {
		return 0, err
	}
	return eng.PredictCtx(ctx, x)
}

// Resident returns the tenant's engine if it is currently resident,
// without loading it or touching LRU order — the probe /healthz-style
// endpoints want.
func (r *Registry) Resident(tenant string) (*Engine, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.resident[tenant]
	if !ok {
		return nil, false
	}
	return e.eng, true
}

// Features returns the feature arity of a resident tenant's model, or -1
// when the tenant is not resident (the registry will not load a model just
// to describe it).
func (r *Registry) Features(tenant string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.resident[tenant]; ok {
		return e.features
	}
	return -1
}

// Known reports whether a checkpoint file exists for the tenant key — the
// answer routing would give, without loading anything.
func (r *Registry) Known(tenant string) bool {
	if !ValidTenant(tenant) {
		return false
	}
	_, err := os.Stat(filepath.Join(r.cfg.Dir, tenant+ModelExt))
	return err == nil
}

// Tenants lists every tenant key with a checkpoint file in the model
// directory, sorted — the servable catalog, independent of residency.
func (r *Registry) Tenants() ([]string, error) {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name, ok := strings.CutSuffix(de.Name(), ModelExt)
		if ok && ValidTenant(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Residents lists the resident tenants, most recently used first.
func (r *Registry) Residents() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		names = append(names, el.Value.(*tenantEntry).name)
	}
	return names
}

// Metrics snapshots the always-on fleet counters. Cheap enough to poll;
// never blocks routing beyond the bookkeeping lock.
func (r *Registry) Metrics() RegistryMetrics {
	r.mu.Lock()
	residents := r.lru.Len()
	bytes := r.bytes
	r.mu.Unlock()
	return RegistryMetrics{
		Residents:        residents,
		ResidentBytes:    bytes,
		MaxResident:      r.cfg.MaxResident,
		MaxResidentBytes: r.cfg.MaxResidentBytes,
		Loads:            r.stats.loads.Load(),
		LoadDedup:        r.stats.loadDedup.Load(),
		Evictions:        r.stats.evictions.Load(),
		LoadErrors:       r.stats.loadErrors.Load(),
		Routed:           r.stats.routed.Load(),
		UnknownTenant:    r.stats.unknownTenant.Load(),
	}
}
