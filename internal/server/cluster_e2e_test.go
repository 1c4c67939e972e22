package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/detect"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/trust"
	"trajforge/internal/wifi"
)

// TestClusterBackendVerdictsBitIdentical is the distributed headline
// property over the wire: a verification service whose WiFi detector runs
// against a multi-node cluster store produces verdicts — batch uploads and
// chunked streaming sessions alike — bit-identical to a single-process
// service over the same records, including across a live tile migration.
func TestClusterBackendVerdictsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	recs := persistRecords(rng, 500)

	// Single-process reference backend.
	single, err := rssimap.NewStore(shardstore.DefaultConfig().Store, recs)
	if err != nil {
		t.Fatal(err)
	}

	// Three shard nodes + coordinator over the same records.
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	clusterStore, err := cluster.NewStore(cluster.Options{Shard: shardstore.DefaultConfig(), Nodes: lb.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterStore.Close() })
	clusterStore.Add(recs)

	// One model, two backends: the verdict difference, if any, can only
	// come from the store.
	det := trainTestDetector(t, single)
	detLocal := &detect.WiFiDetector{Store: single, Model: det.Model, Features: det.Features}
	detCluster := &detect.WiFiDetector{Store: clusterStore, Model: det.Model, Features: det.Features}

	_, _, localClient := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: detLocal,
		Stream: &stream.Config{DisableEarlyExit: true},
	})
	_, _, clusterClient := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: detCluster,
		Stream: &stream.Config{DisableEarlyExit: true},
	})

	checkTrials := func(base int64) {
		t.Helper()
		for trial := 0; trial < 4; trial++ {
			u := uploadFor(t, base+int64(trial), 12+trial*5)
			u.Traj.ID = "cluster-prop"
			if trial%2 == 1 { // forged uploads must agree bit-for-bit too
				for j := range u.Scans {
					u.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
				}
			}
			want, err := localClient.Upload(u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := clusterClient.Upload(u)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, got, want)

			// Streamed through the cluster-backed service in random chunks,
			// the close verdict must still match the single-process batch.
			var sizes []int
			for n := u.Traj.Len(); n > 0; {
				c := 1 + rng.Intn(6)
				if c > n {
					c = n
				}
				sizes = append(sizes, c)
				n -= c
			}
			streamed := streamUpload(t, clusterClient, u, sizes)
			sameVerdict(t, streamed, want)
		}
	}

	checkTrials(3000)

	// Live-migrate the busiest tile and re-run: verdicts must not move.
	tile, ok := clusterStore.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	from := clusterStore.Assignment().Owner(tile)
	var to string
	for id := range lb.Nodes {
		if id != from {
			to = id
			break
		}
	}
	epochBefore := clusterStore.Assignment().Epoch
	if err := clusterStore.Migrate(tile, to); err != nil {
		t.Fatal(err)
	}
	checkTrials(4000)

	// The cluster section must ride /v1/stats end to end.
	st, err := clusterClient.FetchStats()
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Cluster
	if cl == nil {
		t.Fatal("stats missing cluster section")
	}
	if cl.Epoch <= epochBefore {
		t.Fatalf("stats epoch %d did not advance past %d", cl.Epoch, epochBefore)
	}
	if cl.Migrations != 1 || cl.MigrationInFlight {
		t.Fatalf("cluster stats = %+v", cl)
	}
	if cl.Forwarded == 0 {
		t.Fatal("no forwarded requests counted")
	}
	if len(cl.Nodes) != 3 {
		t.Fatalf("cluster stats report %d nodes", len(cl.Nodes))
	}
	var tiles int
	for _, ns := range cl.Nodes {
		tiles += ns.Tiles
	}
	if tiles == 0 {
		t.Fatal("cluster stats report no per-node tiles")
	}
	if lst, err := localClient.FetchStats(); err != nil {
		t.Fatal(err)
	} else if lst.Cluster != nil {
		t.Fatal("single-process service grew a cluster section")
	}
}

// TestClusterFailoverUnderLoad kills the busiest tile's primary in the middle
// of concurrent HTTP load and repairs it under load, as an operator's repair
// loop would: no client may see an error, every upload gets a verdict,
// followers serve the failure window, and the repair advances the epoch.
func TestClusterFailoverUnderLoad(t *testing.T) {
	recs := persistRecords(rand.New(rand.NewSource(131)), 500)
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	cs, err := cluster.NewStore(cluster.Options{Shard: shardstore.DefaultConfig(), Nodes: lb.Addrs, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cs.Add(recs)
	svc, _, client := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: trainTestDetector(t, cs),
		IngestAccepted: true, Stream: &stream.Config{},
	})

	// Pin the victim before any load runs: the primary of the busiest tile.
	tile, ok := cs.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	victim := cs.Assignment().Owner(tile)
	epochBefore := cs.Assignment().Epoch

	const workers, n = 6, 60
	uploads, forged := soakUploads(t, 5000, n, 20)
	verdicts := make([]*Verdict, n)
	// Three phases with a barrier between them: healthy, the failure window
	// (victim dead, follower reads), and repaired. Every worker finishes a
	// phase before the next begins, so each sends a share of its uploads
	// inside the failure window however the scheduler interleaves them; both
	// marks are multiples of workers, so worker g sends exactly the uploads
	// congruent to g. Every fourth upload goes through a streaming session.
	runPhase := func(lo, hi int) {
		soakSend(t, verdicts, lo, hi, workers, func(i int) (*Verdict, error) {
			if i%4 == 3 {
				return streamUploadErr(client, uploads[i], []int{7, 7, 6})
			}
			return client.Upload(uploads[i])
		})
	}
	killAt := n / 2 / workers * workers
	repairAt := n * 3 / 4 / workers * workers
	runPhase(0, killAt)
	if err := lb.Nodes[victim].Close(); err != nil {
		t.Fatalf("mid-run node kill: %v", err)
	}
	runPhase(killAt, repairAt)
	repaired := make(chan error, 1)
	go func() { repaired <- cs.Rereplicate(victim) }()
	runPhase(repairAt, n)
	if err := <-repaired; err != nil {
		t.Fatalf("rereplicate %s: %v", victim, err)
	}

	accepted, realAccepted, forgedRejected := tallySoak(verdicts, forged)
	if realAccepted == 0 || forgedRejected == 0 {
		t.Fatalf("degenerate mix: %d real accepted, %d forged rejected", realAccepted, forgedRejected)
	}
	st := svc.Stats()
	if st.Accepted != accepted || st.Rejected != n-accepted {
		t.Fatalf("server counted %d/%d, clients %d/%d", st.Accepted, st.Rejected, accepted, n-accepted)
	}
	cl := st.Cluster
	if cl == nil {
		t.Fatal("stats missing cluster section")
	}
	if cl.ReplicaReads == 0 {
		t.Fatal("no reads were served by follower replicas after the kill")
	}
	if cl.Repairs == 0 {
		t.Fatal("the killed node's tiles were never re-replicated")
	}
	if cl.Epoch <= epochBefore {
		t.Fatalf("repair did not advance the epoch past %d: %+v", epochBefore, cl)
	}
}

// TestClusterHealthDegraded wires the distributed store's health into
// /v1/health: a replicated cluster backend reports ok while every tile has
// a live replica, and flips to 503 degraded — with a reason and a
// Retry-After — once a tile loses all of them.
func TestClusterHealthDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	recs := persistRecords(rng, 300)

	single, err := rssimap.NewStore(shardstore.DefaultConfig().Store, recs)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	clusterStore, err := cluster.NewStore(cluster.Options{
		Shard: shardstore.DefaultConfig(), Nodes: lb.Addrs, Replicate: true,
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterStore.Close() })
	clusterStore.Add(recs)

	det := trainTestDetector(t, single)
	detCluster := &detect.WiFiDetector{Store: clusterStore, Model: det.Model, Features: det.Features}
	_, ts, _ := newTestService(t, Config{Motion: &fixedMotion{prob: 0.9}, WiFi: detCluster})

	fetchHealth := func() (int, Health, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h, resp.Header.Get("Retry-After")
	}

	if code, h, _ := fetchHealth(); code != http.StatusOK || h.Degraded || !h.Ready {
		t.Fatalf("healthy replicated cluster: code %d, health %+v", code, h)
	}

	// Kill every node, then probe so the coordinator notices the deaths:
	// with both replicas of every tile dark, readiness must drop.
	for _, n := range lb.Nodes {
		n.Close()
	}
	clusterStore.Confidences(context.Background(), make([]rssimap.Answer, 1), []trajectory.Point{{Pos: recs[0].Pos}},
		[]wifi.Scan{{{MAC: "02:4e:00:00:00:01", RSSI: -50}}}, rssimap.FeatureConfig{R: 5, TopK: 1, Tol: 2}, nil)

	code, h, retryAfter := fetchHealth()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded cluster health = %d, want 503", code)
	}
	if !h.Degraded || h.Ready || h.Status != "degraded" {
		t.Fatalf("degraded cluster health body = %+v", h)
	}
	if h.Reason == "" {
		t.Fatal("degraded health carries no reason")
	}
	if retryAfter == "" {
		t.Fatal("degraded health carries no Retry-After")
	}
}

// TestTrustStatsSayWhetherWeightingIsLive: `-trust` in front of a backend
// that cannot apply contributor weights must not look the same in /v1/stats
// as one that can. The field is read off the wire, as an operator would.
func TestTrustStatsSayWhetherWeightingIsLive(t *testing.T) {
	recs := persistRecords(rand.New(rand.NewSource(97)), 200)
	global, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	clustered, err := cluster.NewStore(cluster.Options{Shard: shardstore.DefaultConfig(), Nodes: lb.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clustered.Close() })
	det := trainTestDetector(t, global)
	for _, tc := range []struct {
		name  string
		store rssimap.Backend
		want  bool
	}{
		{"rssimap.Store", global, true},
		{"cluster.Store", clustered, false},
	} {
		tcfg := trust.DefaultConfig()
		_, ts, _ := newTestService(t, Config{
			WiFi:  &detect.WiFiDetector{Store: tc.store, Model: det.Model, Features: det.Features},
			Trust: &tcfg,
		})
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Trust map[string]json.RawMessage `json:"trust"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(st.Trust["weighting_active"]); got != fmt.Sprint(tc.want) {
			t.Errorf("%s: /v1/stats trust.weighting_active = %q, want %v", tc.name, got, tc.want)
		}
	}
}

// startReuseCluster is a replicated 3-node loopback cluster over recs, with
// node RPCs tried once so a dead node fails a query at once.
func startReuseCluster(t *testing.T, recs []rssimap.Record) (*cluster.Loopback, *cluster.Store) {
	t.Helper()
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	cs, err := cluster.NewStore(cluster.Options{
		Shard: shardstore.DefaultConfig(), Nodes: lb.Addrs, Replicate: true,
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cs.Add(recs)
	return lb, cs
}

// TestClusterSessionCloseAfterInterleavedIngest is the cluster variant of
// TestSessionCloseAfterInterleavedIngest: the session runs against the
// cluster, where a point is stale when its tile's index gained a record since
// its append. The close must equal a batch upload to a single-process twin
// that saw the same ingest, bit for bit, having recomputed some points but
// not all.
func TestClusterSessionCloseAfterInterleavedIngest(t *testing.T) {
	recs := persistRecords(rand.New(rand.NewSource(151)), 400)
	twin, err := rssimap.NewStore(shardstore.DefaultConfig().Store, recs)
	if err != nil {
		t.Fatal(err)
	}
	_, cs := startReuseCluster(t, recs)
	u := uploadFor(t, 120, 30)         // X 0 … 37 m: tiles 0 and 1
	v := shiftedUpload(t, 121, 30, 34) // X 34 … 79 m: tile 1's index and beyond, not tile 0's
	r := closeAfterIngest(t, cs, twin, trainTestDetector(t, twin).Model, u, v, nil)
	r.sameBits(t)
	n := int64(u.Traj.Len())
	t.Logf("close reused %d, recomputed %d", r.sessions.CloseReused, r.sessions.CloseRecomputed)
	if rc := r.sessions.CloseRecomputed; rc <= 0 || rc >= n {
		t.Fatalf("close recomputed %d of %d points, want some but not all", rc, n)
	}
}

// TestClusterSessionAppendFailsClosed kills every node mid-session. The next
// append must answer 503 with Retry-After and score nothing — no cached
// confidence, no provisional verdict, no early exit drawn from the silence —
// and the close must answer an error, never a verdict.
func TestClusterSessionAppendFailsClosed(t *testing.T) {
	recs := persistRecords(rand.New(rand.NewSource(157)), 400)
	single, err := rssimap.NewStore(shardstore.DefaultConfig().Store, recs)
	if err != nil {
		t.Fatal(err)
	}
	lb, cs := startReuseCluster(t, recs)
	det := trainTestDetector(t, single)
	svc, _, client := newTestService(t, Config{
		Motion:        &fixedMotion{prob: 0.9},
		WiFi:          &detect.WiFiDetector{Store: cs, Model: det.Model, Features: det.Features},
		Stream:        &stream.Config{EarlyExitAfter: 1},
		UploadTimeout: 5 * time.Second,
	})
	u := uploadFor(t, 158, 24)
	id, err := client.OpenSession("dark", "walking")
	if err != nil {
		t.Fatal(err)
	}
	ack, err := client.AppendSession(id, 0, u, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Scored != 12 || ack.Rejected {
		t.Fatalf("first append ack = %+v", ack)
	}
	for _, n := range lb.Nodes {
		n.Close()
	}
	for attempt := 0; attempt < 2; attempt++ { // the append, then its replay
		_, err = client.AppendSession(id, 1, u, 12, 24)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.RetryAfter <= 0 {
			t.Fatalf("append %d against dead nodes = %v, want 503 with Retry-After", attempt, err)
		}
	}
	if st := svc.Stats().Sessions; st.PointsScored != 12 || st.EarlyExits != 0 {
		t.Fatalf("after the failed appends: scored %d points, %d early exits; want 12 and 0", st.PointsScored, st.EarlyExits)
	}
	if v, err := client.CloseSession(id); err == nil {
		t.Fatalf("close against dead nodes answered a verdict: %+v", v)
	}
}
