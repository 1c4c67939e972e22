package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// randRecords builds crowdsourced records
// spread over a width×height area, dense enough that reference queries and
// counting areas are non-trivial.
func randRecords(rng *rand.Rand, n int, width, height float64) []rssimap.Record {
	macs := make([]string, 40)
	for i := range macs {
		macs[i] = fmt.Sprintf("02:4e:00:00:00:%02x", i)
	}
	recs := make([]rssimap.Record, n)
	for i := range recs {
		m := make(map[string]int)
		for j := 0; j < 3+rng.Intn(5); j++ {
			m[macs[rng.Intn(len(macs))]] = -40 - rng.Intn(50)
		}
		recs[i] = rssimap.Record{
			Pos:  geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height},
			RSSI: m,
		}
	}
	return recs
}

// randUpload builds an upload whose trajectory wanders across tile
// boundaries, every point carrying a scan.
func randUpload(rng *rand.Rand, n int, width, height float64) *wifi.Upload {
	pos := make([]geo.Point, n)
	p := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height}
	for i := range pos {
		p.X = math.Abs(math.Mod(p.X+rng.NormFloat64()*4, width))
		p.Y = math.Abs(math.Mod(p.Y+rng.NormFloat64()*4, height))
		pos[i] = p
	}
	traj := trajectory.New(pos, time.Date(2022, 7, 1, 8, 0, 0, 0, time.UTC), time.Second)
	scans := make([]wifi.Scan, n)
	for i := range scans {
		for j := 0; j < 4; j++ {
			scans[i] = append(scans[i], wifi.Observation{
				MAC:  fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(40)),
				RSSI: -40 - rng.Intn(50),
			})
		}
	}
	return &wifi.Upload{Traj: traj, Scans: scans}
}

// testCluster is a coordinator plus its in-process nodes over loopback TCP.
type testCluster struct {
	store *Store
	nodes map[string]*Node
	addrs map[string]string
	dirs  map[string]string
}

// bootCluster boots n shard nodes (durable when durable is true,
// memory-only otherwise) and a coordinator over them; opts carries
// everything but Shard and Nodes.
func bootCluster(t testing.TB, n int, durable bool, opts Options) *testCluster {
	t.Helper()
	ids := make([]string, n)
	dirs := make(map[string]string)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
		if durable {
			dirs[ids[i]] = t.TempDir()
		}
	}
	lb, err := StartLoopback(shardstore.DefaultConfig(), ids, func(id string) NodeOptions {
		return NodeOptions{Dir: dirs[id]}
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{nodes: lb.Nodes, addrs: lb.Addrs, dirs: dirs}
	opts.Shard, opts.Nodes = shardstore.DefaultConfig(), tc.addrs
	store, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.store = store
	t.Cleanup(tc.close)
	return tc
}

// close tears the cluster down; closing twice is harmless.
func (tc *testCluster) close() {
	tc.store.Close()
	for _, node := range tc.nodes {
		node.Close()
	}
}

// startCluster is bootCluster with a default coordinator.
func startCluster(t *testing.T, n int, durable bool) *testCluster {
	t.Helper()
	return bootCluster(t, n, durable, Options{})
}

// restartNode closes a durable node and reopens it from its directory on
// the same address.
func (tc *testCluster) restartNode(t testing.TB, id string) *Node {
	t.Helper()
	if err := tc.nodes[id].Close(); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(id, shardstore.DefaultConfig(), NodeOptions{Dir: tc.dirs[id]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Listen(tc.addrs[id]); err != nil {
		t.Fatal(err)
	}
	tc.nodes[id] = node
	return node
}

// assertSameVector requires exact IEEE-754 bit equality, the invariant the
// whole cluster design is built around.
func assertSameVector(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: feature %d differs: %v (%#x) vs %v (%#x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// newGlobal builds the global store over recs: the reference every cluster
// answer must match bit for bit.
func newGlobal(t *testing.T, recs []rssimap.Record) *rssimap.Store {
	t.Helper()
	global, err := rssimap.NewStore(shardstore.DefaultConfig().Store, recs)
	if err != nil {
		t.Fatal(err)
	}
	return global
}

// pointConfs is a one-point Confidences call.
func pointConfs(b rssimap.Backend, o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) ([]rssimap.PointConfidence, error) {
	ans := make([]rssimap.Answer, 1)
	_, err := b.Confidences(context.Background(), ans, []trajectory.Point{{Pos: o}}, []wifi.Scan{scan}, cfg, nil)
	return ans[0].Confs, err
}

// confidenceTol asks the cluster for the Eq. 7 answer
// rssimap.Store.ConfidenceTol gives: one reported (mac, rssi) as a
// one-observation TopK-1 scan. A failed query answers (0, 0).
func confidenceTol(s *Store, o geo.Point, mac string, rssi int, r float64, tol rssimap.Tolerance) (phi float64, num int) {
	pc, err := pointConfs(s, o, wifi.Scan{{MAC: mac, RSSI: rssi}}, rssimap.FeatureConfig{R: r, TopK: 1, Tol: tol})
	if err != nil {
		return 0, 0
	}
	return pc[0].Phi, pc[0].Num
}

// assertClusterMatchesGlobal cross-checks the cluster against the global
// store over the same records: Eq. 7 confidences and Eq. 8 feature vectors
// must agree bit for bit.
func assertClusterMatchesGlobal(t *testing.T, rng *rand.Rand, cs *Store, global *rssimap.Store, width, height float64) {
	t.Helper()
	for i := 0; i < 60; i++ {
		o := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height}
		mac := fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(40))
		rssi := -40 - rng.Intn(50)
		wantPhi, wantNum := global.ConfidenceTol(o, mac, rssi, 5, 2)
		gotPhi, gotNum := confidenceTol(cs, o, mac, rssi, 5, 2)
		if math.Float64bits(wantPhi) != math.Float64bits(gotPhi) || wantNum != gotNum {
			t.Fatalf("confidence at %v for %s/%d: (%v,%d) vs (%v,%d)", o, mac, rssi, wantPhi, wantNum, gotPhi, gotNum)
		}
	}
	cfg := rssimap.DefaultFeatureConfig()
	for i := 0; i < 6; i++ {
		u := randUpload(rng, 30, width, height)
		want, err := rssimap.Features(context.Background(), global, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rssimap.Features(context.Background(), cs, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVector(t, want, got, fmt.Sprintf("upload %d", i))
	}
}

func TestClusterBitIdenticalToShardstore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width, height = 120, 120
	recs := randRecords(rng, 900, width, height)

	tc := startCluster(t, 3, false)
	// Split the ingest into batches so the ordered outbox path is exercised.
	for off := 0; off < len(recs); off += 100 {
		tc.store.Add(recs[off : off+100])
	}
	global := newGlobal(t, recs)
	if tc.store.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", tc.store.Len(), len(recs))
	}
	assertClusterMatchesGlobal(t, rng, tc.store, global, width, height)

	// Batch extraction must equal serial extraction.
	uploads := make([]*wifi.Upload, 8)
	for i := range uploads {
		uploads[i] = randUpload(rng, 20, width, height)
	}
	cfg := rssimap.DefaultFeatureConfig()
	batch, err := rssimap.BatchFeatures(tc.store, uploads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range uploads {
		want, err := rssimap.Features(context.Background(), global, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVector(t, want, batch[i], fmt.Sprintf("batch upload %d", i))
	}

	// Records round-trips the canonical log.
	got := tc.store.Records()
	if len(got) != len(recs) {
		t.Fatalf("Records: %d vs %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Pos != recs[i].Pos || len(got[i].RSSI) != len(recs[i].RSSI) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestClusterQueriesOutsideDataAreLocal(t *testing.T) {
	tc := startCluster(t, 2, false)
	tc.store.Add(randRecords(rand.New(rand.NewSource(3)), 50, 20, 20))
	phi, num := confidenceTol(tc.store, geo.Point{X: 900, Y: 900}, "02:4e:00:00:00:01", -50, 5, 0)
	if phi != 0 || num != 0 {
		t.Fatalf("empty-tile query returned (%v, %d)", phi, num)
	}
	if st := tc.store.Stats(); st.LocalEmptyAnswers == 0 {
		t.Fatal("empty-tile query was forwarded")
	}
}

func TestClusterLiveMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width, height = 100, 100
	recs := randRecords(rng, 800, width, height)

	tc := startCluster(t, 3, false)
	tc.store.Add(recs[:400])

	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	from := tc.store.Assignment().Owner(tile)
	var to string
	for id := range tc.nodes {
		if id != from {
			to = id
			break
		}
	}
	epochBefore := tc.store.Assignment().Epoch

	// Migrate while ingestion and queries run concurrently.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 400; off < len(recs); off += 50 {
			tc.store.Add(recs[off : off+50])
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		qrng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			o := geo.Point{X: qrng.Float64() * width, Y: qrng.Float64() * height}
			confidenceTol(tc.store, o, "02:4e:00:00:00:05", -55, 5, 1)
		}
	}()
	if err := tc.store.Migrate(tile, to); err != nil {
		t.Fatalf("migrate %v from %s to %s: %v", tile, from, to, err)
	}
	close(stop)
	wg.Wait()

	a := tc.store.Assignment()
	if a.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance: %d -> %d", epochBefore, a.Epoch)
	}
	if owner := a.Owner(tile); owner != to {
		t.Fatalf("tile %v owned by %q after migration to %q", tile, owner, to)
	}
	if st := tc.store.Stats(); st.Migrations != 1 || st.MigrationInFlight {
		t.Fatalf("stats after migration: %+v", st)
	}

	// The migrated world answers bit-identically to a store that never
	// migrated at all.
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, width, height)

	// Migrating a tile onto its current owner is a no-op.
	if err := tc.store.Migrate(tile, to); err != nil {
		t.Fatalf("same-owner migrate: %v", err)
	}
	if got := tc.store.Assignment().Epoch; got != a.Epoch {
		t.Fatalf("no-op migrate bumped epoch %d -> %d", a.Epoch, got)
	}
	if err := tc.store.Migrate(tile, "no-such-node"); err == nil {
		t.Fatal("migrate to unknown node succeeded")
	}
}

func TestClusterMigrationBuffersConcurrentWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tc := startCluster(t, 2, false)
	recs := randRecords(rng, 300, 60, 60)
	tc.store.Add(recs[:150])

	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	from := tc.store.Assignment().Owner(tile)
	to := "n1"
	if from == "n1" {
		to = "n2"
	}
	// Interleave the migration with writes from this goroutine: entries
	// acked inside the window go to the tile's current and pending holders
	// alike, so the winner holds them all once the move commits.
	done := make(chan error, 1)
	go func() { done <- tc.store.Migrate(tile, to) }()
	for off := 150; off < len(recs); off += 30 {
		tc.store.Add(recs[off : off+30])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, 60, 60)
}

func TestClusterNodeRestartReplaysDurableState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const width, height = 80, 80
	recs := randRecords(rng, 500, width, height)

	tc := startCluster(t, 3, true)
	tc.store.Add(recs[:300])

	// Kill n2: later adds fail over to the unsynced path, and queries heal
	// it after restart via resync from the canonical log.
	victim := "n2"
	addr := tc.addrs[victim]
	if err := tc.nodes[victim].Close(); err != nil {
		t.Fatal(err)
	}
	tc.store.Add(recs[300:])

	// Restart on the same address with the same durability dir: the WAL
	// replays the acked prefix, resync replays the tail added while down.
	node, err := NewNode(victim, shardstore.DefaultConfig(), NodeOptions{Dir: tc.dirs[victim]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Listen(addr); err != nil {
		t.Fatal(err)
	}
	tc.nodes[victim] = node

	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, width, height)
	if st := tc.store.Stats(); st.Resyncs == 0 {
		t.Fatalf("expected a resync after restart: %+v", st)
	}
	for _, ns := range tc.store.Stats().Nodes {
		if ns.Unsynced {
			t.Fatalf("node %s still unsynced after healing", ns.ID)
		}
	}
}

func TestClusterNodeCompactionPreservesState(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const width, height = 60, 60
	recs := randRecords(rng, 300, width, height)

	tc := startCluster(t, 2, true)
	tc.store.Add(recs)
	for id, node := range tc.nodes {
		if err := node.Compact(); err != nil {
			t.Fatalf("compact %s: %v", id, err)
		}
	}
	// Restart both nodes from snapshot + empty WAL.
	for id := range tc.nodes {
		tc.restartNode(t, id)
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, width, height)
}

func TestClusterCoordinatorRestartFencesAndRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const width, height = 60, 60
	recs := randRecords(rng, 300, width, height)

	tc := startCluster(t, 2, false)
	tc.store.Add(recs)
	oldEpoch := tc.store.Assignment().Epoch

	// A new coordinator incarnation (the server restarting and replaying
	// its WAL) re-probes the nodes, adopts a higher epoch, and re-Adds the
	// canonical log; the seq gate makes the replay idempotent.
	store2, err := NewStore(Options{Shard: shardstore.DefaultConfig(), Nodes: tc.addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := store2.Assignment().Epoch; got <= oldEpoch {
		t.Fatalf("new coordinator epoch %d not above old %d", got, oldEpoch)
	}
	store2.Add(recs)

	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, store2, global, width, height)

	// The old coordinator is fenced: its next add hits wrongEpoch with a
	// higher node epoch and the node refuses to regress.
	tc.store.Add(recs[:10])
	phi, num := confidenceTol(store2, geo.Point{X: 30, Y: 30}, "02:4e:00:00:00:01", -50, 5, 2)
	wantPhi, wantNum := global.ConfidenceTol(geo.Point{X: 30, Y: 30}, "02:4e:00:00:00:01", -50, 5, 2)
	if math.Float64bits(phi) != math.Float64bits(wantPhi) || num != wantNum {
		t.Fatalf("fenced-coordinator aftermath: (%v,%d) vs (%v,%d)", phi, num, wantPhi, wantNum)
	}
}

func TestClusterConcurrentAddAndQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const width, height = 60, 60
	recs := randRecords(rng, 400, width, height)
	tc := startCluster(t, 3, false)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < len(recs); off += 40 {
			tc.store.Add(recs[off : off+40])
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				o := geo.Point{X: qrng.Float64() * width, Y: qrng.Float64() * height}
				pointConfs(tc.store, o, wifi.Scan{{MAC: "02:4e:00:00:00:07", RSSI: -60}}, rssimap.DefaultFeatureConfig())
			}
		}(int64(g) + 100)
	}
	wg.Wait()

	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, width, height)
}

func TestClusterStatsShape(t *testing.T) {
	tc := startCluster(t, 3, false)
	recs := randRecords(rand.New(rand.NewSource(71)), 200, 60, 60)
	tc.store.Add(recs)
	pointConfs(tc.store, geo.Point{X: 30, Y: 30}, wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -50}}, rssimap.DefaultFeatureConfig())

	st := tc.store.Stats()
	if st.Records != len(recs) {
		t.Fatalf("Records = %d, want %d", st.Records, len(recs))
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("Nodes = %d, want 3", len(st.Nodes))
	}
	var tiles, entries int
	for _, ns := range st.Nodes {
		tiles += ns.Tiles
		entries += ns.Entries
	}
	if tiles == 0 || entries < len(recs) {
		t.Fatalf("per-node occupancy empty: %+v", st.Nodes)
	}
	if st.HaloUpdates == 0 {
		t.Fatal("no halo updates recorded over a multi-tile area")
	}
	if st.Forwarded == 0 {
		t.Fatal("no forwarded queries recorded")
	}
	if st.Epoch == 0 {
		t.Fatal("epoch unset")
	}
}

func TestClusterFeatureRadiusBound(t *testing.T) {
	tc := startCluster(t, 2, false)
	cfg := rssimap.DefaultFeatureConfig()
	cfg.R = shardstore.DefaultConfig().MaxQueryRadius + 1
	u := randUpload(rand.New(rand.NewSource(5)), 5, 20, 20)
	if _, err := rssimap.Features(context.Background(), tc.store, u, cfg); err == nil {
		t.Fatal("oversized feature radius accepted")
	}
}
