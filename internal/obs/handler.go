package obs

import (
	"expvar"
	"net/http"
	"sync"
)

// Variable names the serving stack publishes. cmd/reghd-serve registers
// both; docs/OBSERVABILITY.md documents the JSON under each (enforced by
// make metrics-lint).
const (
	// EngineVar is the expvar name carrying reghd.EngineMetrics.
	EngineVar = "reghd.engine"
	// HWVar is the expvar name carrying the live HWBridge report.
	HWVar = "reghd.hw"
	// RegistryVar is the expvar name carrying reghd.RegistryMetrics — the
	// multi-tenant fleet counters (reghd.NewRegistry publishes it).
	RegistryVar = "reghd.registry"
	// TrainVar is the expvar name carrying obs.TrainMetrics — the always-on
	// sharded-training aggregate (obs publishes it at init).
	TrainVar = "reghd.train"
	// ReplVar is the expvar name carrying obs.ReplMetrics — the always-on
	// replication aggregate (obs publishes it at init).
	ReplVar = "reghd.repl"
)

var (
	pubMu   sync.Mutex
	pubVars = map[string]func() any{}
)

// Publish registers f under name in the process-global expvar registry, so
// its result appears (JSON-marshaled) in the /metrics and /debug/vars
// output. Unlike expvar.Publish, re-publishing an existing name replaces
// the producer instead of panicking — the level of indirection tests and
// restarted engines need.
func Publish(name string, f func() any) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if _, ok := pubVars[name]; !ok {
		n := name
		expvar.Publish(n, expvar.Func(func() any {
			pubMu.Lock()
			g := pubVars[n]
			pubMu.Unlock()
			if g == nil {
				return nil
			}
			return g()
		}))
	}
	pubVars[name] = f
}

// Handler returns the /metrics handler: one JSON object with every
// published expvar variable — the Publish'd metrics producers plus the
// stdlib's built-ins (cmdline, memstats). The output format is identical to
// the stdlib's /debug/vars endpoint; this constructor just lets callers
// mount it on any mux and path without importing expvar for its side
// effects.
func Handler() http.Handler { return expvar.Handler() }
