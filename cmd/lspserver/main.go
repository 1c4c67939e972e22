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
// recovers counters, history, and the crowdsourced store bit-identically
// — including uploads accepted moments before a crash. A circuit breaker
// guards the WAL: when appends or syncs start failing the service flips
// to degraded (uploads shed with 503, /v1/health non-200) instead of
// acknowledging writes that would not survive a crash, and self-heals
// via half-open compaction probes once the disk recovers.
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
// (-lease FILE -standby) waits for the active's lease to lapse, then takes
// over at a higher fencing epoch:
//
//	lspserver -join ... -replicate -cluster-data-dir DIR \
//	          -lease /shared/coord.lease -coord-id c1
//	lspserver -join ... -replicate -cluster-data-dir DIR2 \
//	          -lease /shared/coord.lease -coord-id c2 -standby
//
// Usage:
//
//	lspserver -addr :8742 [-seed 1] [-uploads 300] [-data-dir DIR]
//	          [-node-id ID -cluster-listen ADDR | -join ID=ADDR,...]
//	          [-replicate] [-cluster-data-dir DIR] [-repair-every 0]
//	          [-rebalance-every 0] [-lease FILE] [-lease-ttl 5s]
//	          [-coord-id ID] [-standby]
//	          [-max-inflight N] [-queue-depth N] [-upload-timeout 10s]
//	          [-max-sessions N] [-session-ttl 10m] [-session-window N]
//	          [-trust] [-quarantine-k N] [-trust-floor F] [-trust-promote F]
//	          [-trust-refresh N] [-drift-window N]
package main

import (
	"context"
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
	"trajforge/internal/dataset"
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
	leaseLost := make(chan struct{})
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

	// Open the durability layer first: recovered state decides below
	// whether the store is seeded from disk or from the bootstrap corpus.
	var persist *server.Persistence
	var recovered *server.RecoveredState
	if cfg.dataDir != "" {
		p, err := server.OpenPersistence(cfg.dataDir, server.PersistOptions{
			// Fail closed on WAL trouble: shed uploads with 503 instead of
			// issuing acks that would not survive a crash.
			Breaker: &resilience.BreakerConfig{Cooldown: cfg.breakerCooldown},
		})
		if err != nil {
			return err
		}
		persist = p
		recovered = p.Recovered()
		if !recovered.Empty() {
			fmt.Printf("recovered from %s: %d accepted, %d rejected, %d records, %d WAL uploads\n",
				cfg.dataDir, recovered.Accepted, recovered.Rejected,
				len(recovered.Records), len(recovered.Uploads))
		}
	}

	// The bootstrap simulation is deterministic in -seed, so the training
	// corpus (and the detector) is reproducible across restarts even when
	// the store itself comes from disk.
	fmt.Println("bootstrapping provider state (area, history, detector)...")
	city, err := trajforge.NewCity(trajforge.CityConfig{
		Width: 300, Height: 240, BlockSize: 60, NumAPs: 350, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	start := time.Date(2022, 7, 1, 8, 0, 0, 0, time.UTC)

	var hist []*trajforge.Upload
	for tries := 0; len(hist) < cfg.uploads && tries < cfg.uploads*30; tries++ {
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
	if len(hist) < cfg.uploads {
		return fmt.Errorf("bootstrapped only %d/%d uploads", len(hist), cfg.uploads)
	}

	// Seed the store: recovered records when the data directory holds a
	// snapshot (it already contains the bootstrap of the first run), the
	// fresh bootstrap corpus otherwise. Uploads replayed from the WAL are
	// applied later through Service.Restore, after the service exists.
	nStore := len(hist) * 3 / 4
	records := dataset.Records(hist[:nStore])
	if recovered != nil && !recovered.Empty() {
		records = recovered.Records
	}
	var store trajforge.RSSIBackend
	var cs *cluster.Store
	if cfg.clusterNodes != nil {
		cs, err = cluster.NewStore(cluster.Options{
			Shard:     shardstore.DefaultConfig(),
			Nodes:     cfg.clusterNodes,
			Replicate: cfg.replicate,
			Dir:       cfg.clusterDataDir,
		})
		if err != nil {
			return err
		}
		defer cs.Close()
		// The coordinator owns the canonical log; the bootstrap (or the
		// recovered snapshot) is replicated out to the shard nodes tile by
		// tile, idempotently — a node that already holds a prefix from a
		// previous coordinator incarnation skips it via the seq gate. A
		// coordinator restarting over -cluster-data-dir recovered the log
		// from its own WAL already; feeding the bootstrap again is absorbed
		// the same way, except the log itself which dedups nothing — so skip
		// the re-feed entirely when the WAL recovered records.
		if cs.Len() == 0 {
			cs.Add(records)
		} else {
			fmt.Printf("cluster: coordinator WAL recovered %d records, skipping bootstrap feed\n", cs.Len())
		}
		mode := "primary-only"
		if cfg.replicate {
			mode = "replicated"
		}
		fmt.Printf("cluster: %d nodes, epoch %d, %s\n", len(cfg.clusterNodes), cs.Assignment().Epoch, mode)
		store = cs
	} else {
		store, err = rssimap.NewStore(rssimap.DefaultConfig(), records)
		if err != nil {
			return err
		}
	}
	var fakes []*trajforge.Upload
	for _, u := range hist[:nStore/2] {
		f, err := trajforge.ForgeUploadRSSI(rng, u, 1.2)
		if err != nil {
			return err
		}
		fakes = append(fakes, f)
	}
	det, err := trajforge.TrainWiFiDetector(store, hist[nStore:], fakes)
	if err != nil {
		return err
	}
	replay, err := trajforge.NewReplayChecker(1.2)
	if err != nil {
		return err
	}
	for _, u := range hist[:nStore] {
		replay.AddHistory(u.Traj)
	}

	var trustCfg *trust.Config
	if cfg.trust {
		tc := trust.DefaultConfig()
		tc.Quarantine.K = cfg.quarantineK
		tc.Quarantine.PromoteTrust = cfg.trustPromote
		tc.Ledger.Floor = cfg.trustFloor
		tc.WeightRefresh = cfg.trustRefresh
		tc.Drift.Window = cfg.driftWindow
		trustCfg = &tc
		if _, ok := store.(rssimap.TrustWeighted); !ok {
			fmt.Println("trust: this store backend (-join) does not apply contributor weights: " +
				"quarantine and drift alarms are on, θ2 re-weighting is OFF (trust.weighting_active=false in /v1/stats)")
		}
	}

	pr := geo.NewProjection(geo.LatLon{Lat: 32.06, Lon: 118.79})
	svc, err := trajforge.NewVerificationServer(server.Config{
		Projection:     pr,
		Replay:         replay,
		WiFi:           det,
		IngestAccepted: persist != nil || trustCfg != nil,
		Persist:        persist,
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
		return err
	}
	if persist != nil {
		svc.Restore(recovered)
		if recovered.Empty() {
			// First run on this directory: snapshot the bootstrap store so
			// a crash before the first compaction can still recover it.
			if err := persist.Compact(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("listening on %s (history: %d uploads, %d RSSI records)\n",
		cfg.addr, nStore, store.Len())
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Body and response deadlines: a slow-loris body or a stalled
		// reader cannot pin a connection (and its goroutine) forever.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		// Reap dead keep-alive connections.
		IdleTimeout: 2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight uploads, flush the
	// WAL queue, and take the final snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Renew the coordinator lease at a third of its ttl; losing it means a
	// standby fenced us off the nodes, so stop serving rather than answer
	// from a store the cluster no longer listens to.
	if lease != nil {
		interval := cfg.leaseTTL / 3
		if interval <= 0 {
			interval = time.Millisecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := lease.Renew(time.Now()); err != nil {
						fmt.Fprintln(os.Stderr, "lspserver: coordinator lease lost:", err)
						close(leaseLost)
						return
					}
				}
			}
		}()
	}
	// Background repair: any node that stays unreachable gets its tiles
	// re-replicated onto the surviving members; a node that merely lagged is
	// healed in place with a resync from the canonical log.
	if cs != nil && cfg.repairEvery > 0 {
		go func() {
			t := time.NewTicker(cfg.repairEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
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
				}
			}
		}()
	}
	// Background rebalance: one bounded step per tick, each migrating the
	// hottest tile off the most-loaded node when that narrows the spread.
	if cs != nil && cfg.rebalanceEvery > 0 {
		go func() {
			t := time.NewTicker(cfg.rebalanceEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					moved, err := cs.Rebalance()
					if err != nil {
						fmt.Fprintln(os.Stderr, "lspserver: rebalance failed:", err)
					} else if moved {
						fmt.Println("cluster: rebalanced hottest tile off most-loaded node")
					}
				}
			}
		}()
	}
	// Sweep expired streaming sessions so abandoned clients free their
	// admission slots (and their abort verdicts reach the WAL) without
	// waiting for another request to trip over them.
	go func() {
		t := time.NewTicker(15 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				svc.SweepSessions()
			}
		}
	}()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Println("shutting down...")
	case <-leaseLost:
		fmt.Println("coordinator lease lost; shutting down...")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	printStats(svc.Stats())
	if err := svc.Close(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if persist != nil {
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

// printStats summarises the session: counters plus where verification time
// went, per pipeline stage, plus durability and cluster state when on.
func printStats(st server.Stats) {
	fmt.Printf("session: %d accepted, %d rejected, %d in history\n",
		st.Accepted, st.Rejected, st.History)
	for _, name := range []string{"decode", "rules", "route", "replay", "motion", "features", "score", "persist"} {
		sg := st.Stages[name]
		if sg.Count == 0 {
			continue
		}
		fmt.Printf("  stage %-8s %6d runs, avg %8.1f us, p99 %6d us, total %d ms\n",
			name, sg.Count, sg.AvgMicros, sg.P99Micros, sg.TotalMicros/1000)
	}
	if a := st.Admission; a != nil {
		fmt.Printf("  admission: %d admitted, %d shed (queue full), %d shed (deadline), %d queue timeouts\n",
			a.Admitted, a.ShedQueueFull, a.ShedDeadline, a.DeadlineExceeded)
	}
	if st.InternalErrors+st.DeadlineRejects+st.DegradedRejects > 0 {
		fmt.Printf("  errors: %d internal, %d deadline, %d degraded rejects\n",
			st.InternalErrors, st.DeadlineRejects, st.DegradedRejects)
	}
	if p := st.Persistence; p != nil {
		fmt.Printf("  wal: %d frames, %d bytes, generation %d\n",
			p.WALFrames, p.WALBytes, p.Generation)
		if b := p.Breaker; b != nil {
			fmt.Printf("  breaker: %s, %d opens, %d closes, %d probes\n",
				b.State, b.Opens, b.Closes, b.Probes)
		}
	}
	if ss := st.Sessions; ss != nil && ss.Opened > 0 {
		fmt.Printf("  sessions: %d opened, %d closed, %d early-exits, %d expired, %d chunks (%d points scored)\n",
			ss.Opened, ss.Closed, ss.EarlyExits, ss.Expired, ss.Chunks, ss.PointsScored)
	}
	if cl := st.Cluster; cl != nil {
		fmt.Printf("  cluster: epoch %d, %d records, %d forwarded, %d halo updates, %d migrations\n",
			cl.Epoch, cl.Records, cl.Forwarded, cl.HaloUpdates, cl.Migrations)
		if cl.Replicated {
			fmt.Printf("  replication: %d replica reads, %d repairs, %d rebalances, %d retried calls, %d expired rejects\n",
				cl.ReplicaReads, cl.Repairs, cl.Rebalances, cl.RetriedCalls, cl.ExpiredRejects)
		}
		if cl.WALFrames > 0 || cl.Generation > 0 {
			fmt.Printf("  coordinator wal: %d frames, %d bytes, generation %d\n",
				cl.WALFrames, cl.WALBytes, cl.Generation)
		}
		if cl.Degraded {
			fmt.Printf("  DEGRADED: %s\n", cl.DegradedReason)
		}
		for _, ns := range cl.Nodes {
			state := "synced"
			if ns.Unsynced {
				state = "UNSYNCED"
			}
			fmt.Printf("    node %-8s %4d tiles (+%d follower), %6d entries, %s\n",
				ns.ID, ns.Tiles, ns.FollowerTiles, ns.Entries, state)
		}
	}
}
