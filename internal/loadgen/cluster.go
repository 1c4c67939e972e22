package loadgen

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/dataset"
	"trajforge/internal/shardstore"
)

// ClusterOptions configures the cluster scenario: the same seeded upload
// mix as the flat scenario, but the provider's RSSI backend is a
// multi-node shard cluster over loopback — every feature extraction
// forwards through the coordinator's wire codec to the owning nodes — and
// the busiest tile live-migrates between nodes in the middle of the run.
type ClusterOptions struct {
	// Seed fixes the workload bytes (as in Options).
	Seed int64
	// N is the number of uploads to send. Default 200.
	N int
	// Workers is the sender-pool size. Default 8.
	Workers int
	// Nodes is the shard-node count. Default 3.
	Nodes int
	// ForgedFrac, Points and Hist mirror Options.
	ForgedFrac float64
	Points     int
	Hist       int
}

func (o *ClusterOptions) setDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.N <= 0 {
		o.N = 200
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.ForgedFrac == 0 {
		o.ForgedFrac = 0.3
	}
	if o.Points <= 0 {
		o.Points = 20
	}
	if o.Hist <= 0 {
		o.Hist = 60
	}
}

// ClusterResult is the measured outcome; it lands in BENCH_loadgen.json
// under "cluster".
type ClusterResult struct {
	Seed    int64 `json:"seed"`
	Nodes   int   `json:"nodes"`
	Uploads int   `json:"uploads"`
	Workers int   `json:"workers"`
	// Accepted/Rejected/Errors are verdict counters as in the flat run.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Errors   int `json:"errors"`
	// End-to-end upload latency through the cluster-backed provider.
	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`
	// Forwarded counts shard RPCs the coordinator sent to nodes;
	// ForwardRatio is the fraction of WiFi-stage queries that needed at
	// least one remote hop (the rest answered locally against provably
	// empty tiles). HaloUpdates counts boundary-tile refreshes.
	Forwarded    uint64  `json:"forwarded_requests"`
	ForwardRatio float64 `json:"forward_ratio"`
	HaloUpdates  uint64  `json:"halo_updates"`
	// Epoch advances past EpochBefore because the run live-migrates the
	// busiest tile at the workload midpoint; Migrations must land at 1.
	EpochBefore uint64 `json:"epoch_before"`
	Epoch       uint64 `json:"epoch"`
	Migrations  uint64 `json:"migrations"`
	// PerNodeTiles is the post-migration tile spread, coordinator's view.
	PerNodeTiles map[string]int `json:"per_node_tiles"`
	Digest       string         `json:"workload_digest"`
}

// nodeIDs names n loopback shard nodes n1..nN.
func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	return ids
}

// RunCluster builds a workload, spins opts.Nodes in-process shard nodes
// plus a coordinator over loopback, points a self-hosted provider's WiFi
// detector at the cluster store (same trained model as a flat run — only
// the backend differs), and drives the upload mix while live-migrating
// the busiest tile mid-run.
func RunCluster(opts ClusterOptions) (*ClusterResult, error) {
	opts.setDefaults()
	w, err := Build(Options{
		Seed: opts.Seed, N: opts.N, Workers: opts.Workers,
		ForgedFrac: opts.ForgedFrac, Points: opts.Points, Hist: opts.Hist,
	})
	if err != nil {
		return nil, err
	}

	// The cluster holds the same records SelfHostOpts trains against, so
	// the swapped backend answers the same queries with the same bits.
	nStore := len(w.Hist) * 3 / 4
	records := dataset.Records(w.Hist[:nStore])

	shardCfg := shardstore.DefaultConfig()
	lb, err := cluster.StartLoopback(shardCfg, nodeIDs(opts.Nodes), nil)
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	cs, err := cluster.NewStore(cluster.Options{Shard: shardCfg, Nodes: lb.Addrs})
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	cs.Add(records)

	srv, err := w.SelfHostOpts(HostOptions{Seed: opts.Seed, WiFiStore: cs})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	res := &ClusterResult{
		Seed: opts.Seed, Nodes: opts.Nodes,
		Uploads: len(w.Items), Workers: opts.Workers,
		EpochBefore: cs.Assignment().Epoch,
		Digest:      w.Digest,
	}

	// Pin the migration the midpoint fires, before any load runs.
	migTile, ok := cs.BusiestTile()
	if !ok {
		return nil, fmt.Errorf("loadgen: cluster has no busiest tile")
	}
	migFrom := cs.Assignment().Owner(migTile)
	var migTo string
	for id := range lb.Nodes {
		if id != migFrom {
			migTo = id
			break
		}
	}

	client := &http.Client{Timeout: 30 * time.Second}
	url := srv.URL + "/v1/trajectory"

	type workerStats struct {
		latencies                  []float64
		accepted, rejected, errors int
	}
	stats := make([]workerStats, opts.Workers)
	// Worker 0 performs the live migration just before its item nearest
	// the workload midpoint, so the handoff runs under concurrent load
	// from every other worker.
	migAt := (len(w.Items) / 2 / opts.Workers) * opts.Workers
	var migErr error
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < opts.Workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := &stats[g]
			for i := g; i < len(w.Items); i += opts.Workers {
				if g == 0 && i == migAt {
					migErr = cs.Migrate(migTile, migTo)
				}
				t0 := time.Now()
				v, err := postUpload(client, url, "application/json", w.Items[i].Body)
				st.latencies = append(st.latencies, float64(time.Since(t0).Nanoseconds())/1e6)
				switch {
				case err != nil:
					st.errors++
				case v.Accepted:
					st.accepted++
				default:
					st.rejected++
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if migErr != nil {
		return nil, fmt.Errorf("loadgen: mid-run migration: %w", migErr)
	}

	var all []float64
	for i := range stats {
		st := &stats[i]
		all = append(all, st.latencies...)
		res.Accepted += st.accepted
		res.Rejected += st.rejected
		res.Errors += st.errors
	}
	sort.Float64s(all)
	res.DurationSec = elapsed.Seconds()
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(w.Items)) / elapsed.Seconds()
	}
	res.P50Millis = percentile(all, 0.50)
	res.P95Millis = percentile(all, 0.95)
	res.P99Millis = percentile(all, 0.99)

	// Cluster counters ride the same /v1/stats surface operators see.
	st := srv.Svc.Stats()
	if st.Cluster == nil {
		return nil, fmt.Errorf("loadgen: /v1/stats has no cluster section")
	}
	cst := st.Cluster
	res.Forwarded = cst.Forwarded
	res.HaloUpdates = cst.HaloUpdates
	res.Epoch = cst.Epoch
	res.Migrations = cst.Migrations
	if total := cst.Forwarded + cst.LocalEmptyAnswers; total > 0 {
		res.ForwardRatio = float64(cst.Forwarded) / float64(total)
	}
	res.PerNodeTiles = make(map[string]int, len(cst.Nodes))
	for _, ns := range cst.Nodes {
		res.PerNodeTiles[ns.ID] = ns.Tiles
	}
	return res, nil
}
