// Command reghd-replica is one member of a fault-tolerant delta-sync
// serving fleet (internal/repl, docs/REPLICATION.md). Each process owns a
// full RegHD model, trains on its shard of the workload, and exchanges
// compact binary deltas with its peers over HTTP — no coordinator. The
// fleet folds a sync round once every member's delta has arrived; the
// merged state is Float64bits-identical on every replica regardless of
// delivery order, which is what the smoke script asserts.
//
//	POST /repl/delta  peer delta exchange (internal/repl wire frames)
//	POST /predict     {"x":[...]} -> {"y":...} against the merged snapshot
//	GET  /healthz     liveness; "syncing" until the first fold, then "ok"
//	GET  /replstatus  repl.Status JSON: round, fingerprint, peer health
//	GET  /metrics     expvar JSON including the reghd.repl.* counters
//
// Chaos flags wrap the outbound transport in the seeded fault injector
// (drop/duplicate/reorder plus one timed partition window), so a
// three-process fleet under `make replica-smoke` converges through real
// message loss.
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
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reghd"
	"reghd/internal/fault"
	"reghd/internal/httpx"
	"reghd/internal/obs"
	"reghd/internal/repl"
)

func main() {
	var (
		id      = flag.Int("id", 0, "this replica's fleet ID (0..members-1)")
		members = flag.Int("members", 3, "fixed fleet size")
		peers   = flag.String("peers", "", `peer base URLs as "id=url,id=url" (self entry ignored)`)
		addr    = flag.String("addr", "localhost:8081", "listen address (host:0 picks an ephemeral port)")

		synthName  = flag.String("synth", "ccpp", "synthetic training dataset")
		dim        = flag.Int("dim", 256, "hypervector dimensionality D")
		models     = flag.Int("models", 8, "number of cluster/model pairs k")
		maxSamples = flag.Int("max-samples", 900, "cap on training rows (sharded across the fleet)")
		seed       = flag.Int64("seed", 1, "model + dataset seed; must match across the fleet")
		rounds     = flag.Int("rounds", 3, "sync rounds to drive (each round feeds this replica's full shard); 0 serves without self-training")

		sendTimeout = flag.Duration("send-timeout", 2*time.Second, "per-delivery-attempt timeout")
		retries     = flag.Int("retries", 5, "retry budget per delivery cycle")

		chaosDrop      = flag.Float64("chaos-drop", 0, "outbound random drop rate [0,1)")
		chaosDup       = flag.Float64("chaos-dup", 0, "outbound duplication rate [0,1)")
		chaosReorder   = flag.Float64("chaos-reorder", 0, "outbound reorder rate [0,1)")
		chaosSeed      = flag.Int64("chaos-seed", 1, "fault injector seed")
		chaosPartition = flag.Duration("chaos-partition", 0, "sever this replica's outbound links for this long at the second round's seal (0 = off)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix(fmt.Sprintf("reghd-replica[%d]: ", *id))

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, options{
		id: *id, members: *members, peers: *peers, addr: *addr,
		synth: *synthName, dim: *dim, models: *models,
		maxSamples: *maxSamples, seed: *seed, rounds: *rounds,
		sendTimeout: *sendTimeout, retries: *retries,
		chaosDrop: *chaosDrop, chaosDup: *chaosDup, chaosReorder: *chaosReorder,
		chaosSeed: *chaosSeed, chaosPartition: *chaosPartition,
	}); err != nil {
		log.Fatal(err)
	}
}

type options struct {
	id, members             int
	peers, addr, synth      string
	dim, models, maxSamples int
	seed                    int64
	rounds, retries         int
	sendTimeout             time.Duration
	chaosDrop, chaosDup     float64
	chaosReorder            float64
	chaosSeed               int64
	chaosPartition          time.Duration
}

// parsePeers turns "0=http://a,1=http://b" into a peer map without the
// self entry.
func parsePeers(spec string, self, members int) (map[int]string, error) {
	m := map[int]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idStr, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q is not id=url", part)
		}
		pid, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil || pid < 0 || pid >= members {
			return nil, fmt.Errorf("peer entry %q: bad id (fleet is 0..%d)", part, members-1)
		}
		if pid != self {
			m[pid] = strings.TrimSpace(url)
		}
	}
	for pid := 0; pid < members; pid++ {
		if pid != self {
			if _, ok := m[pid]; !ok {
				return nil, fmt.Errorf("-peers is missing replica %d", pid)
			}
		}
	}
	return m, nil
}

// buildModel constructs the fleet's shared starting model and this
// replica's training shard (rows id, id+members, ... of the standardized
// dataset). Every replica derives both from the same seeds, so the fleet
// starts bit-identical — the precondition repl.New documents.
func buildModel(o options) (*reghd.Model, *reghd.Dataset, error) {
	data, err := reghd.SyntheticDataset(o.synth, o.seed)
	if err != nil {
		return nil, nil, err
	}
	if data.Len() > o.maxSamples {
		idx := make([]int, o.maxSamples)
		for i := range idx {
			idx[i] = i
		}
		data = data.Subset(idx)
	}
	sc, err := reghd.FitScaler(data, true)
	if err != nil {
		return nil, nil, err
	}
	scaled, err := sc.Transform(data)
	if err != nil {
		return nil, nil, err
	}
	var shard []int
	for i := o.id; i < scaled.Len(); i += o.members {
		shard = append(shard, i)
	}
	enc, err := reghd.NewEncoder(data.Features(), o.dim, o.seed+42)
	if err != nil {
		return nil, nil, err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = o.models
	cfg.Seed = o.seed + 13
	model, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return nil, nil, err
	}
	return model, scaled.Subset(shard), nil
}

func run(ctx context.Context, o options) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	peerURLs, err := parsePeers(o.peers, o.id, o.members)
	if err != nil {
		return err
	}
	model, shard, err := buildModel(o)
	if err != nil {
		return err
	}

	var tr repl.Transport = repl.NewHTTPTransport(peerURLs)
	var chaos *repl.Chaos
	if o.chaosDrop > 0 || o.chaosDup > 0 || o.chaosReorder > 0 || o.chaosPartition > 0 {
		faults, err := fault.NewNetFaults(fault.NetConfig{
			Drop:      o.chaosDrop,
			Duplicate: o.chaosDup,
			Reorder:   o.chaosReorder,
			Seed:      o.chaosSeed,
		})
		if err != nil {
			return err
		}
		chaos = repl.NewChaos(tr, faults)
		tr = chaos
		log.Printf("chaos transport on: drop=%.2f dup=%.2f reorder=%.2f seed=%d partition=%v",
			o.chaosDrop, o.chaosDup, o.chaosReorder, o.chaosSeed, o.chaosPartition)
	}

	replica, err := repl.New(model, repl.Config{
		ID:          o.id,
		Members:     o.members,
		SendTimeout: o.sendTimeout,
		RetryBudget: o.retries,
		JitterSeed:  o.seed + int64(o.id),
	}, tr)
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle(repl.DeltaPath, repl.DeltaHandler(replica))
	mux.HandleFunc("/replstatus", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(replica.Status())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if replica.Round() == 0 {
			fmt.Fprintln(w, "syncing")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.Handler())
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		x, err := httpx.DecodeRow(w, r)
		if err != nil {
			return
		}
		y, err := replica.Predict(x)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]float64{"y": y})
	})

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := httpx.NewServer(mux)
	log.Printf("serving on http://%s (fleet of %d, shard %d rows)", ln.Addr(), o.members, shard.Len())

	driverDone := make(chan error, 1)
	go func() {
		driverDone <- drive(ctx, replica, chaos, shard, o)
	}()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("shutting down")
		gracefulShutdown(srv)
	}()

	err = srv.Serve(ln) // blocks until Shutdown (or a listener fault)
	cancel()            // listener-fault path: unblock the driver and the shutdown waiter
	<-shutdownDone
	if derr := <-driverDone; derr != nil && ctx.Err() == nil {
		log.Printf("training driver failed: %v", derr)
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// gracefulShutdown drains the server with a fresh detached deadline — the
// caller's ctx is already canceled by the time shutdown starts.
func gracefulShutdown(srv *http.Server) {
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// drive feeds the replica's shard through o.rounds sync rounds: each round
// trains the full shard, seals, then pumps Flush (and the chaos reorder
// stash) until the fleet folds. With -chaos-partition set, the replica
// severs its own outbound links at the second round's seal and heals after
// the window — peers stall on the round barrier, keep serving their last
// merged snapshot, and converge once healed.
func drive(ctx context.Context, r *repl.Replica, chaos *repl.Chaos, shard *reghd.Dataset, o options) error {
	if o.rounds == 0 {
		return nil
	}
	// Deterministic per-replica shuffle so rounds are epochs, not replays
	// of one fixed order.
	rng := rand.New(rand.NewSource(o.seed + int64(o.id)*101))
	order := rng.Perm(shard.Len())
	for round := 1; round <= o.rounds; round++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		for _, i := range order {
			if err := r.PartialFit(shard.X[i], shard.Y[i]); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		if chaos != nil && o.chaosPartition > 0 && round == 2 {
			chaos.Faults().Isolate(o.id)
			log.Printf("round %d: partitioned outbound links for %v", round, o.chaosPartition)
			healTimer := time.AfterFunc(o.chaosPartition, func() {
				chaos.Faults().HealAll()
				log.Printf("partition healed")
			})
			defer healTimer.Stop()
		}
		if err := r.Seal(ctx); err != nil {
			log.Printf("round %d seal: %v (retrying via flush)", round, err)
		}
		for r.Round() < uint64(round) {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			if err := r.Flush(ctx); err != nil {
				log.Printf("round %d flush: %v", round, err)
			}
			if chaos != nil {
				if err := chaos.Drain(ctx); err != nil {
					log.Printf("round %d drain: %v", round, err)
				}
			}
		}
		log.Printf("round %d folded: fingerprint=%016x samples=%d", round, r.Fingerprint(), r.Samples())
	}
	log.Printf("training complete after %d rounds; serving merged snapshot", o.rounds)
	return nil
}
