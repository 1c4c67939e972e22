// Command lspserver runs the cloud-side trajectory verification service.
// On startup it simulates a commercial area, collects a crowdsourced RSSI
// history, trains the WiFi detector, and serves the verification API:
//
//	POST /v1/trajectory     upload a trajectory (JSON; see internal/server)
//	POST /v1/session/open   open a streaming verification session
//	POST /v1/session/append append a chunk; acknowledged with a provisional verdict
//	POST /v1/session/close  finalise; verdict bit-identical to /v1/trajectory
//	GET  /v1/stats          provider counters
//	GET  /v1/health         liveness / readiness / degradation
//
// With -data-dir the provider state is durable: accepted uploads are
// journaled to a write-ahead log before the next upload is served, the
// full state is snapshotted on compaction and shutdown, and a restart
// recovers counters, history, sessions, trust state and the crowdsourced
// store bit-identically — including uploads accepted moments before a
// crash, each ingested once. Every boot trains the WiFi detector on the
// bootstrap corpus of -seed and -uploads, never on the recovered store, so
// a restart or a standby takeover with the same two flags serves the first
// boot's model. A circuit breaker guards the WAL: when appends or syncs
// start failing the service flips to degraded (uploads shed with 503,
// /v1/health non-200) instead of acknowledging writes that would not
// survive a crash, and self-heals via half-open compaction probes once the
// disk recovers.
//
// Overload control: -max-inflight bounds concurrent verification work,
// -queue-depth bounds the FIFO wait queue behind it, and -upload-timeout
// caps per-upload processing; excess load is shed with 429 + Retry-After.
//
// Streaming sessions are bounded by -max-sessions concurrently open
// sessions, evicted after -session-ttl (or 90s idle), and score a
// provisional verdict over a sliding window of -session-window points.
//
// Cluster mode splits the RSSI store across shard-node processes. A node
// process serves tiles over the shard-transport RPC and keeps its own
// WAL/snapshot lineage; a coordinator process runs the full verification
// service with the distributed store as its backend, forwarding feature
// extraction to the nodes that own each tile:
//
//	lspserver -node-id n1 -cluster-listen 127.0.0.1:7101 [-data-dir DIR]
//	lspserver -join n1=127.0.0.1:7101,n2=127.0.0.1:7102,n3=127.0.0.1:7103
//
// With -replicate every tile also lives on a follower node: ingestion
// dual-writes, reads fail over when the primary is unreachable, and
// -repair-every re-replicates a dead node's tiles in the background while
// -rebalance-every migrates the hottest tile off the most-loaded node.
// -cluster-data-dir gives the coordinator its own WAL/snapshot lineage so
// a restart recovers the canonical record log and assignment epoch from
// disk instead of replaying the bootstrap corpus. A standby coordinator
// (-lease FILE -standby) opens the active's -cluster-data-dir on shared
// storage, waits for the active's lease to lapse, then recovers the log
// and takes over at a higher fencing epoch:
//
//	lspserver -join ... -replicate -cluster-data-dir /shared/coord \
//	          -lease /shared/coord.lease -coord-id c1
//	lspserver -join ... -replicate -cluster-data-dir /shared/coord \
//	          -lease /shared/coord.lease -coord-id c2 -standby
//
// lspserver -h lists every flag.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trajforge"
	"trajforge/internal/cluster"
	"trajforge/internal/geo"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/shardstore"
	"trajforge/internal/stream"
	"trajforge/internal/trust"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lspserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	// Node mode: no HTTP service, no bootstrap simulation — just the shard
	// node serving tiles until signalled.
	if cfg.nodeID != "" {
		return runNode(cfg.nodeID, cfg.clusterListen, cfg.dataDir)
	}

	// The lease gates store creation: building the Store fences the previous
	// coordinator off the nodes, so a standby must not build one until the
	// active's claim has lapsed. Liveness only — safety is the epoch fence.
	var lease *cluster.Lease
	if cfg.leasePath != "" {
		lease, err = cluster.NewLease(nil, cfg.leasePath, cfg.coordID, cfg.leaseTTL)
		if err != nil {
			return err
		}
		if cfg.standby {
			fmt.Printf("standby %s: waiting for lease %s...\n", cfg.coordID, cfg.leasePath)
			for {
				if err := lease.Acquire(time.Now()); err == nil {
					break
				} else if !errors.Is(err, cluster.ErrLeaseHeld) {
					return err
				}
				time.Sleep(cfg.leaseTTL / 3)
			}
			fmt.Printf("standby %s: lease acquired, taking over\n", cfg.coordID)
		} else if err := lease.Acquire(time.Now()); err != nil {
			return fmt.Errorf("another coordinator is active: %w", err)
		}
	}

	p, err := boot(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s (%d RSSI records)\n", cfg.addr, p.det.Store.Len())
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           p.svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Body and response deadlines: a slow-loris body or a stalled
		// reader cannot pin a connection (and its goroutine) forever.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		// Reap dead keep-alive connections.
		IdleTimeout: 2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM or a lost lease, then drain in-flight
	// uploads, flush the WAL queue, and take the final snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, leaseLost := context.WithCancel(ctx)
	defer leaseLost()
	// Renew the coordinator lease at a third of its ttl; losing it means a
	// standby fenced us off the nodes, so stop serving rather than answer
	// from a store the cluster no longer listens to.
	if lease != nil {
		every(ctx, max(cfg.leaseTTL/3, time.Millisecond), func() {
			if err := lease.Renew(time.Now()); err != nil {
				fmt.Fprintln(os.Stderr, "lspserver: coordinator lease lost:", err)
				leaseLost()
			}
		})
	}
	// Background repair: any node that stays unreachable gets its tiles
	// re-replicated onto the surviving members; a node that merely lagged is
	// healed in place with a resync from the canonical log.
	if cs := p.cluster; cs != nil && cfg.repairEvery > 0 {
		every(ctx, cfg.repairEvery, func() {
			for _, ns := range cs.Stats().Nodes {
				if !ns.Unsynced {
					continue
				}
				resyncErr := cs.Resync(ns.ID)
				if resyncErr == nil {
					fmt.Printf("cluster: resynced lagging node %s\n", ns.ID)
					continue
				}
				if err := cs.Rereplicate(ns.ID); err != nil {
					fmt.Fprintf(os.Stderr, "lspserver: repair of node %s failed: resync: %v; re-replicate: %v\n", ns.ID, resyncErr, err)
					continue
				}
				fmt.Printf("cluster: re-replicated tiles off dead node %s\n", ns.ID)
			}
		})
	}
	// Background rebalance: one bounded step per tick, each migrating the
	// hottest tile off the most-loaded node when that narrows the spread.
	if cs := p.cluster; cs != nil && cfg.rebalanceEvery > 0 {
		every(ctx, cfg.rebalanceEvery, func() {
			moved, err := cs.Rebalance()
			if err != nil {
				fmt.Fprintln(os.Stderr, "lspserver: rebalance failed:", err)
			} else if moved {
				fmt.Println("cluster: rebalanced hottest tile off most-loaded node")
			}
		})
	}
	// Sweep expired streaming sessions so abandoned clients free their
	// admission slots (and their abort verdicts reach the WAL) without
	// waiting for another request to trip over them.
	every(ctx, 15*time.Second, func() { p.svc.SweepSessions() })
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Println("shutting down...")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	printStats(p.svc.Stats())
	if err := p.Close(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if p.persist != nil {
		fmt.Printf("state persisted to %s\n", cfg.dataDir)
	}
	// Hand the lease back so a standby takes over without waiting out the
	// ttl. A lost lease was already someone else's to keep.
	if lease != nil {
		if err := lease.Release(time.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "lspserver: lease release:", err)
		}
	}
	return nil
}

// provider is what boot assembles: the verification service, its WiFi
// detector (scoring against the serving store, det.Store) and the handles
// run maintains and shuts it down through.
type provider struct {
	svc     *server.Service
	det     *trajforge.WiFiDetector
	cluster *cluster.Store      // nil without -join
	persist *server.Persistence // nil without -data-dir
}

// Close takes the final snapshot and drops the cluster connections.
func (p *provider) Close() error {
	err := p.svc.Close()
	if p.cluster != nil {
		err = errors.Join(err, p.cluster.Close())
	}
	return err
}

// boot assembles the provider from cfg. A first boot, a restart and a
// standby takeover run the same steps, so a restart serves what the process
// before it served: the model is a function of -seed and -uploads alone, and
// Service.Restore writes the WAL tail into the store only when the store did
// not recover it from its own journal (DESIGN.md §6, "Restart is first boot").
func boot(cfg *config) (_ *provider, err error) {
	p := &provider{}
	recovered := &server.RecoveredState{}
	if cfg.dataDir != "" {
		p.persist, err = server.OpenPersistence(cfg.dataDir, server.PersistOptions{
			// Fail closed on WAL trouble: shed uploads with 503 instead of
			// issuing acks that would not survive a crash.
			Breaker: &resilience.BreakerConfig{Cooldown: cfg.breakerCooldown},
		})
		if err != nil {
			return nil, err
		}
		recovered = p.persist.Recovered()
		if !recovered.Empty() {
			fmt.Printf("recovered from %s: %d accepted, %d rejected, %d records, %d WAL uploads\n",
				cfg.dataDir, recovered.Accepted, recovered.Rejected,
				len(recovered.Records), len(recovered.Uploads))
		}
	}

	fmt.Println("bootstrapping provider state (area, history, detector)...")
	history, real, fakes, err := bootstrapCorpus(cfg.seed, cfg.uploads)
	if err != nil {
		return nil, err
	}
	// The forest is trained against a throwaway store of the bootstrap
	// records, never the serving store, which a restart or a takeover opens
	// holding every upload accepted since the first boot.
	trainStore, err := trajforge.NewRSSIStore(history)
	if err != nil {
		return nil, err
	}
	if p.det, err = trajforge.TrainWiFiDetector(trainStore, real, fakes); err != nil {
		return nil, err
	}

	if cfg.clusterNodes != nil {
		p.cluster, err = cluster.NewStore(cluster.Options{
			Shard:     shardstore.DefaultConfig(),
			Nodes:     cfg.clusterNodes,
			Replicate: cfg.replicate,
			Dir:       cfg.clusterDataDir,
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				p.cluster.Close()
			}
		}()
		mode := "primary-only"
		if cfg.replicate {
			mode = "replicated"
		}
		fmt.Printf("cluster: %d nodes, epoch %d, %s\n", len(cfg.clusterNodes), p.cluster.Assignment().Epoch, mode)
		p.det.Store = p.cluster
	} else if p.det.Store, err = rssimap.NewStore(rssimap.DefaultConfig(), nil); err != nil {
		return nil, err
	}
	// One seeding rule for both backends: only an empty store is seeded, from
	// the recovered snapshot or on first boot from the bootstrap records.
	switch {
	case p.det.Store.Len() > 0: // a durable coordinator recovered its log
	case recovered.Empty():
		p.det.Store.Add(trainStore.Records())
	default:
		p.det.Store.Add(recovered.Records)
	}

	replay, err := trajforge.NewReplayChecker(1.2)
	if err != nil {
		return nil, err
	}
	for _, u := range history {
		replay.AddHistory(u.Traj)
	}
	var trustCfg *trust.Config
	if cfg.trust {
		trustCfg = &cfg.trustCfg
		if _, ok := p.det.Store.(rssimap.TrustWeighted); !ok {
			fmt.Println("trust: this store backend (-join) does not apply contributor weights: " +
				"quarantine and drift alarms are on, θ2 re-weighting is OFF (trust.weighting_active=false in /v1/stats)")
		}
	}
	p.svc, err = trajforge.NewVerificationServer(server.Config{
		Projection:     geo.NewProjection(geo.LatLon{Lat: 32.06, Lon: 118.79}),
		Replay:         replay,
		WiFi:           p.det,
		IngestAccepted: p.persist != nil || trustCfg != nil,
		Persist:        p.persist,
		MaxInFlight:    cfg.maxInflight,
		QueueDepth:     cfg.queueDepth,
		UploadTimeout:  cfg.uploadTimeout,
		Trust:          trustCfg,
		Stream: &stream.Config{
			MaxSessions: cfg.maxSessions,
			TTL:         cfg.sessionTTL,
			Window:      cfg.sessionWindow,
		},
	})
	if err != nil {
		return nil, err
	}
	if p.persist != nil {
		if err := p.svc.Restore(recovered); err != nil {
			return nil, err
		}
		if recovered.Empty() {
			// First run on this directory: snapshot the bootstrap store so
			// a crash before the first compaction can still recover it.
			if err := p.persist.Compact(); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// bootstrapCorpus simulates the commercial area of seed and collects n
// crowdsourced walking uploads in it. The first three quarters are the
// history that seeds the store and the replay gate; the rest are the
// honest training uploads, and fakes are forged from the first half of
// the history.
func bootstrapCorpus(seed int64, n int) (history, real, fakes []*trajforge.Upload, err error) {
	city, err := trajforge.NewCity(trajforge.CityConfig{
		Width: 300, Height: 240, BlockSize: 60, NumAPs: 350, Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	start := time.Date(2022, 7, 1, 8, 0, 0, 0, time.UTC)
	var hist []*trajforge.Upload
	for tries := 0; len(hist) < n && tries < n*30; tries++ {
		from := trajforge.PlanePoint{X: 10 + rng.Float64()*280, Y: 10 + rng.Float64()*220}
		to := trajforge.PlanePoint{X: 10 + rng.Float64()*280, Y: 10 + rng.Float64()*220}
		trip, err := city.Travel(trajforge.TripConfig{
			From: from, To: to, Mode: trajforge.ModeWalking,
			Points: 30, Start: start, CollectScans: true,
		})
		if err != nil || trip.Upload.Traj.Len() != 30 {
			continue
		}
		hist = append(hist, trip.Upload)
	}
	if len(hist) < n {
		return nil, nil, nil, fmt.Errorf("bootstrapped only %d/%d uploads", len(hist), n)
	}
	nStore := n * 3 / 4
	for _, u := range hist[:nStore/2] {
		f, err := trajforge.ForgeUploadRSSI(rng, u, 1.2)
		if err != nil {
			return nil, nil, nil, err
		}
		fakes = append(fakes, f)
	}
	return hist[:nStore], hist[nStore:], fakes, nil
}

// every calls fn at each interval in its own goroutine until ctx is done.
func every(ctx context.Context, interval time.Duration, fn func()) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// runNode serves one cluster shard node until SIGINT/SIGTERM. With a data
// directory the node keeps its own WAL/snapshot lineage and recovers its
// tiles (and journaled assignment epoch) across restarts; the coordinator
// resyncs whatever tail it missed while down.
func runNode(id, listen, dataDir string) error {
	node, err := cluster.NewNode(id, shardstore.DefaultConfig(), cluster.NodeOptions{Dir: dataDir})
	if err != nil {
		return err
	}
	addr, err := node.Listen(listen)
	if err != nil {
		node.Close()
		return err
	}
	if dataDir != "" {
		fmt.Printf("node %s serving shard transport on %s (durable in %s)\n", id, addr, dataDir)
	} else {
		fmt.Printf("node %s serving shard transport on %s (memory-only)\n", id, addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("node shutting down...")
	// Fold the WAL into a snapshot so the next start replays nothing.
	if dataDir != "" {
		if err := node.Compact(); err != nil {
			node.Close()
			return fmt.Errorf("final compaction: %w", err)
		}
	}
	return node.Close()
}

// printStats prints the final /v1/stats body: counters, per-stage timing,
// admission, durability, sessions, trust and cluster state, one rendering
// of server.Stats for the endpoint and the console.
func printStats(st server.Stats) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lspserver: final stats:", err)
		return
	}
	fmt.Printf("final stats:\n%s\n", b)
}
