package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/wifi"
)

// startReplicatedCluster boots n durable shard nodes and a replicated
// coordinator over them (durable itself when coordDir is non-empty). Retry
// is disabled so tests that kill nodes fail over immediately; the retry
// path has its own test below.
func startReplicatedCluster(t *testing.T, n int, coordDir string) *testCluster {
	t.Helper()
	return bootCluster(t, n, true, Options{
		Replicate: true, Dir: coordDir,
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})
}

// TestFollowerReadBitIdentity grows a replicated cluster, migrates its
// hottest tile, kills that tile's (post-migration) primary outright, and
// then hammers the degraded cluster from concurrent readers: every answer
// must be bit-identical to a rebuilt global store, and at
// least some must have been served by follower replicas.
func TestFollowerReadBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const width, height = 120, 120
	recs := randRecords(rng, 900, width, height)

	tc := startReplicatedCluster(t, 3, "")
	half := len(recs) / 2
	tc.store.Add(recs[:half])

	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	a := tc.store.Assignment()
	owner, follower := a.Owner(tile), a.Follower(tile)
	if follower == "" || follower == owner {
		t.Fatalf("replicated tile %v has follower %q (owner %q)", tile, follower, owner)
	}
	var to string
	for id := range tc.nodes {
		if id != owner && id != follower {
			to = id
		}
	}
	if err := tc.store.Migrate(tile, to); err != nil {
		t.Fatal(err)
	}
	tc.store.Add(recs[half:])

	// Kill the tile's current primary: every read it owned must fail over.
	victim := tc.store.Assignment().Owner(tile)
	if err := tc.nodes[victim].Close(); err != nil {
		t.Fatal(err)
	}

	global := newGlobal(t, recs)
	cfg := rssimap.DefaultFeatureConfig()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4; i++ {
				u := randUpload(r, 30, width, height)
				want, err := rssimap.Features(context.Background(), global, u, cfg)
				if err != nil {
					errCh <- err
					return
				}
				got, err := rssimap.Features(context.Background(), tc.store, u, cfg)
				if err != nil {
					errCh <- fmt.Errorf("cluster features with dead primary: %w", err)
					return
				}
				for j := range want {
					if want[j] != got[j] {
						errCh <- fmt.Errorf("feature %d differs: %v vs %v", j, want[j], got[j])
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := tc.store.Stats()
	if !st.Replicated {
		t.Fatal("stats do not report replication on")
	}
	if st.ReplicaReads == 0 {
		t.Fatal("no query was served by a follower replica")
	}
}

// TestCoordinatorWALRecovery restarts a durable coordinator over its own
// WAL: the canonical log, the tile index, and the assignment epoch all come
// back from disk with zero seed-corpus replay, and queries match a
// single-process store bit for bit.
func TestCoordinatorWALRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width, height = 120, 120
	recs := randRecords(rng, 700, width, height)
	coordDir := t.TempDir()

	tc := startReplicatedCluster(t, 3, coordDir)
	tc.store.Add(recs[:400])
	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	owner := tc.store.Assignment().Owner(tile)
	for id := range tc.nodes {
		if id != owner {
			if err := tc.store.Migrate(tile, id); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	tc.store.Add(recs[400:])
	oldEpoch := tc.store.Assignment().Epoch
	if err := tc.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same directory, same still-running nodes, and NO re-Add.
	restarted, err := NewStore(Options{
		Shard: shardstore.DefaultConfig(), Nodes: tc.addrs,
		Replicate: true, Dir: coordDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()

	if restarted.Len() != len(recs) {
		t.Fatalf("recovered %d canonical records from the coordinator WAL, want %d", restarted.Len(), len(recs))
	}
	if e := restarted.Assignment().Epoch; e <= oldEpoch {
		t.Fatalf("recovered epoch %d does not fence above previous incarnation's %d", e, oldEpoch)
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, restarted, global, width, height)
}

// TestCoordinatorCompactionPreservesState checkpoints the coordinator WAL
// mid-growth and restarts from snapshot + tail.
func TestCoordinatorCompactionPreservesState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const width, height = 100, 100
	recs := randRecords(rng, 600, width, height)
	coordDir := t.TempDir()

	tc := startReplicatedCluster(t, 2, coordDir)
	tc.store.Add(recs[:300])
	if err := tc.store.Compact(); err != nil {
		t.Fatal(err)
	}
	tc.store.Add(recs[300:])
	if err := tc.store.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewStore(Options{
		Shard: shardstore.DefaultConfig(), Nodes: tc.addrs,
		Replicate: true, Dir: coordDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if restarted.Len() != len(recs) {
		t.Fatalf("recovered %d records after compaction, want %d", restarted.Len(), len(recs))
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, restarted, global, width, height)
}

// TestCoordinatorFailoverLease covers the lease-file protocol and the
// epoch fence behind it: a standby cannot take a live lease, takes an
// expired one, and once its store incarnation fences a higher epoch the
// old coordinator's pushes bounce off the nodes.
func TestCoordinatorFailoverLease(t *testing.T) {
	path := t.TempDir() + "/coordinator.lease"
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	active, err := NewLease(nil, path, "coord-1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := NewLease(nil, path, "coord-2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := active.Acquire(now); err != nil {
		t.Fatal(err)
	}
	if err := standby.Acquire(now); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("standby acquired a live lease: %v", err)
	}
	if err := active.Renew(now.Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Past the ttl the standby takes over; the stale holder's renew fails.
	late := now.Add(3 * time.Second)
	if err := standby.Acquire(late); err != nil {
		t.Fatalf("standby could not take an expired lease: %v", err)
	}
	if err := active.Renew(late); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale holder renewed a lost lease: %v", err)
	}
	if err := standby.Release(late); err != nil {
		t.Fatal(err)
	}
	if holder, live, err := standby.Holder(late); err != nil || live {
		t.Fatalf("released lease still live (holder %q, err %v)", holder, err)
	}

	// The fence behind the lease: once a standby coordinator comes up at a
	// higher epoch, the nodes refuse the old coordinator's ingestion.
	rng := rand.New(rand.NewSource(31))
	recs := randRecords(rng, 200, 80, 80)
	tc := startCluster(t, 2, false)
	tc.store.Add(recs[:100])

	usurper, err := NewStore(Options{Shard: shardstore.DefaultConfig(), Nodes: tc.addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer usurper.Close()
	if e, o := usurper.Assignment().Epoch, tc.store.Assignment().Epoch; e <= o {
		t.Fatalf("standby epoch %d does not fence above old coordinator epoch %d", e, o)
	}
	tc.store.Add(recs[100:])
	fenced := 0
	for _, ns := range tc.store.Stats().Nodes {
		if ns.Unsynced {
			fenced++
		}
	}
	if fenced == 0 {
		t.Fatal("old coordinator was not fenced off any node after the takeover")
	}
}

// TestRebalanceMovesHottestTile constructs a fully lopsided cluster (every
// tile migrated onto one node) and drives Rebalance steps: each moves the
// hottest tile off the most-loaded node, the counter records it, repeated
// steps converge, and answers stay bit-identical throughout.
func TestRebalanceMovesHottestTile(t *testing.T) {
	tc := startCluster(t, 3, false)
	rng := rand.New(rand.NewSource(37))
	recs := randRecords(rng, 600, 40, 40) // 4 non-empty 25m tiles
	tc.store.Add(recs)

	tc.store.mu.RLock()
	tiles := make([][2]int, 0, len(tc.store.tileIndex))
	for tile, idxs := range tc.store.tileIndex {
		if len(idxs) > 0 {
			tiles = append(tiles, tile)
		}
	}
	tc.store.mu.RUnlock()
	if len(tiles) < 2 {
		t.Fatalf("workload spans %d tiles, need >= 2", len(tiles))
	}
	for _, tile := range tiles {
		if err := tc.store.Migrate(tile, "n1"); err != nil {
			t.Fatalf("migrate %v: %v", tile, err)
		}
	}

	moved, err := tc.store.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("rebalance did not move a tile off a node owning everything")
	}
	if st := tc.store.Stats(); st.Rebalances != 1 {
		t.Fatalf("rebalances counter %d, want 1", st.Rebalances)
	}
	off := 0
	for _, tile := range tiles {
		if tc.store.Assignment().Owner(tile) != "n1" {
			off++
		}
	}
	if off == 0 {
		t.Fatal("every tile still owned by the most-loaded node")
	}

	// Repeated steps converge (bounded by the tile count) and never error.
	for i := 0; i < len(tiles)+1; i++ {
		again, err := tc.store.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if !again {
			break
		}
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, 40, 40)
}

// TestExpiredDeadlineRefused covers the typed refusal for requests whose
// deadline passed before dispatch — at the coordinator, and in the wire
// encoding's clock-skew-immune sentinel.
func TestExpiredDeadlineRefused(t *testing.T) {
	tc := startCluster(t, 2, false)
	rng := rand.New(rand.NewSource(41))
	tc.store.Add(randRecords(rng, 400, 80, 80))

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	u := randUpload(rng, 10, 80, 80)
	if _, err := tc.store.FeaturesContext(ctx, u, rssimap.DefaultFeatureConfig()); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired-context query returned %v, want ErrExpired", err)
	}
	if st := tc.store.Stats(); st.ExpiredRejects == 0 {
		t.Fatal("expired refusal not counted in coordinator stats")
	}

	// Wire encoding: an already-expired deadline becomes the sentinel
	// regardless of receiver clock skew, because the field is relative to
	// the SENDER's clock.
	sender := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if ms := deadlineMs(sender.Add(-time.Millisecond), sender); ms != deadlineExpiredMs {
		t.Fatalf("expired deadline encoded as %d, want sentinel", ms)
	}
	if ms := deadlineMs(sender.Add(250*time.Millisecond), sender); ms != 250 {
		t.Fatalf("250ms deadline encoded as %d", ms)
	}
	// A receiver whose clock is an hour behind still derives ~250ms of
	// budget, and the sentinel still maps to a minimal response bound.
	skewed := sender.Add(-time.Hour)
	if dl := wireDeadline(250, skewed, 10*time.Second); dl.Sub(skewed) != 250*time.Millisecond {
		t.Fatalf("skewed receiver derived %v of budget, want 250ms", dl.Sub(skewed))
	}
	if dl := wireDeadline(deadlineExpiredMs, skewed, 10*time.Second); dl.Sub(skewed) != time.Second {
		t.Fatalf("sentinel mapped to %v, want 1s response bound", dl.Sub(skewed))
	}
}

// TestNodeRefusesExpiredRequests drives the node-side refusal directly: a
// request arriving with the expired sentinel is answered with a typed
// statusExpired response, unworked, and counted in the node's stats.
func TestNodeRefusesExpiredRequests(t *testing.T) {
	tc := startCluster(t, 1, false)
	rng := rand.New(rand.NewSource(43))
	recs := randRecords(rng, 100, 40, 40)
	tc.store.Add(recs)
	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	nc := tc.store.nodes["n1"]
	resp, err := nc.call(&ConfReq{
		Deadline: deadlineExpiredMs,
		Epoch:    tc.store.Assignment().Epoch,
		Cfg:      rssimap.DefaultFeatureConfig(),
		Points:   []ConfPoint{{Tile: tile, Pos: recs[0].Pos, Scan: wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -50}}}},
	}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := resp.(*ConfResp)
	if !ok {
		t.Fatalf("got %T", resp)
	}
	if cr.Status != statusExpired {
		t.Fatalf("node answered expired request with status %d, want statusExpired", cr.Status)
	}
	stats, err := nc.call(&StatsReq{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := stats.(*StatsResp)
	if !ok {
		t.Fatalf("got %T", stats)
	}
	if sr.ExpiredRejects == 0 {
		t.Fatal("node did not count the expired rejection")
	}
}

// TestIngestRetriesAcrossNodeRestart bounces a durable node mid-workload:
// the coordinator's jittered transport retry re-dials, the per-tile seq
// gate absorbs any duplicate delivery, and the final state is bit-identical
// to a store that never saw the bounce.
func TestIngestRetriesAcrossNodeRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const width, height = 80, 80
	recs := randRecords(rng, 400, width, height)

	tc := bootCluster(t, 2, true, Options{
		Retry: &resilience.RetryPolicy{MaxAttempts: 20, Base: 20 * time.Millisecond, Max: 100 * time.Millisecond, Budget: 10 * time.Second},
	})
	store := tc.store

	store.Add(recs[:200])

	// Bounce n1: close it, restart it from its WAL on the SAME address a
	// beat later, while ingestion continues under the retry policy.
	victim := "n1"
	addr := tc.addrs[victim]
	if err := tc.nodes[victim].Close(); err != nil {
		t.Fatal(err)
	}
	restartDone := make(chan error, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		node, err := NewNode(victim, shardstore.DefaultConfig(), NodeOptions{Dir: tc.dirs[victim]})
		if err != nil {
			restartDone <- err
			return
		}
		if _, err := node.Listen(addr); err != nil {
			restartDone <- err
			return
		}
		tc.nodes[victim] = node
		restartDone <- nil
	}()

	store.Add(recs[200:])
	if err := <-restartDone; err != nil {
		t.Fatal(err)
	}
	// Heal whatever the bounce window lost, then verify bit-identity.
	for id := range tc.nodes {
		if err := store.Resync(id); err != nil {
			t.Fatalf("resync %s: %v", id, err)
		}
	}
	if st := store.Stats(); st.RetriedCalls == 0 {
		t.Fatal("node bounce never exercised the transport retry")
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, store, global, width, height)
}

// TestHealthStatusDegraded drives the coordinator's degraded signal: a
// healthy replicated cluster reports ready; with every replica of a tile
// dead, the store reports degraded with a reason.
func TestHealthStatusDegraded(t *testing.T) {
	tc := startReplicatedCluster(t, 2, "")
	rng := rand.New(rand.NewSource(53))
	recs := randRecords(rng, 200, 60, 60)
	tc.store.Add(recs)
	if deg, reason := tc.store.HealthStatus(); deg {
		t.Fatalf("healthy cluster reports degraded: %s", reason)
	}
	// Two nodes means every tile's replica set is exactly {n1, n2}: kill
	// both and every non-empty tile goes dark.
	for _, n := range tc.nodes {
		n.Close()
	}
	// A probe on a non-empty tile makes the coordinator notice the deaths.
	confidenceTol(tc.store, recs[0].Pos, "02:4e:00:00:00:01", -50, 5, 2)
	deg, reason := tc.store.HealthStatus()
	if !deg {
		t.Fatal("cluster with every node dead reports healthy")
	}
	if reason == "" {
		t.Fatal("degraded health carries no reason")
	}
}
