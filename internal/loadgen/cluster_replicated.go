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

// ClusterReplicatedResult is the measured outcome of the replicated cluster
// scenario; it lands in BENCH_loadgen.json under "cluster_replicated".
type ClusterReplicatedResult struct {
	Seed    int64 `json:"seed"`
	Nodes   int   `json:"nodes"`
	Uploads int   `json:"uploads"`
	Workers int   `json:"workers"`
	// Accepted/Rejected/Errors are verdict counters as in the flat run.
	// Errors must stay zero: the mid-run node kill is absorbed by follower
	// failover, not surfaced to clients.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Errors   int `json:"errors"`
	// End-to-end upload latency through the replicated cluster provider,
	// including the window where the killed node's tiles fail over.
	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`
	// Forwarded/ForwardRatio as in the primary-only scenario; ReplicaReads
	// counts queries answered by a follower, and ReplicaReadRatio is their
	// share of all forwarded answers.
	Forwarded        uint64  `json:"forwarded_requests"`
	ForwardRatio     float64 `json:"forward_ratio"`
	ReplicaReads     uint64  `json:"replica_reads"`
	ReplicaReadRatio float64 `json:"replica_read_ratio"`
	// KilledNode is the busiest tile's primary, closed at the workload
	// midpoint; Repairs counts the background re-replications that followed.
	KilledNode   string `json:"killed_node"`
	Repairs      uint64 `json:"repairs"`
	RetriedCalls uint64 `json:"retried_calls"`
	EpochBefore  uint64 `json:"epoch_before"`
	Epoch        uint64 `json:"epoch"`
	Digest       string `json:"workload_digest"`
}

// RunClusterReplicated mirrors RunCluster with tile replication on: every
// tile lives on a primary and a follower, and at the workload midpoint the
// busiest tile's primary node is killed outright and its tiles
// re-replicated — the run measures the price of surviving that, with
// clients never seeing an error.
func RunClusterReplicated(opts ClusterOptions) (*ClusterReplicatedResult, error) {
	opts.setDefaults()
	w, err := Build(Options{
		Seed: opts.Seed, N: opts.N, Workers: opts.Workers,
		ForgedFrac: opts.ForgedFrac, Points: opts.Points, Hist: opts.Hist,
	})
	if err != nil {
		return nil, err
	}

	nStore := len(w.Hist) * 3 / 4
	records := dataset.Records(w.Hist[:nStore])

	shardCfg := shardstore.DefaultConfig()
	lb, err := cluster.StartLoopback(shardCfg, nodeIDs(opts.Nodes), nil)
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	cs, err := cluster.NewStore(cluster.Options{Shard: shardCfg, Nodes: lb.Addrs, Replicate: true})
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

	res := &ClusterReplicatedResult{
		Seed: opts.Seed, Nodes: opts.Nodes,
		Uploads: len(w.Items), Workers: opts.Workers,
		EpochBefore: cs.Assignment().Epoch,
		Digest:      w.Digest,
	}

	// Pin the victim before any load runs: the primary of the busiest tile.
	tile, ok := cs.BusiestTile()
	if !ok {
		return nil, fmt.Errorf("loadgen: cluster has no busiest tile")
	}
	victim := cs.Assignment().Owner(tile)
	res.KilledNode = victim

	client := &http.Client{Timeout: 30 * time.Second}
	url := srv.URL + "/v1/trajectory"

	type workerStats struct {
		latencies                  []float64
		accepted, rejected, errors int
	}
	stats := make([]workerStats, opts.Workers)
	// The run has three phases with a barrier between them: healthy, the
	// failure window (victim dead, follower reads), and repaired. Every
	// worker finishes a phase before the next begins, so each sends its
	// share of items — a quarter of them — inside the failure window no
	// matter how the scheduler interleaves workers; left unsynchronised, the
	// others could finish their whole slice before the kill and leave the
	// window empty of reads. Both marks are multiples of Workers, so worker g
	// still sends exactly the items congruent to g.
	killAt := (len(w.Items) / 2 / opts.Workers) * opts.Workers
	repairAt := (len(w.Items) * 3 / 4 / opts.Workers) * opts.Workers
	if repairAt <= killAt {
		repairAt = killAt + opts.Workers
	}
	runPhase := func(lo, hi int) {
		var wg sync.WaitGroup
		for g := 0; g < opts.Workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				st := &stats[g]
				for i := lo + g; i < hi && i < len(w.Items); i += opts.Workers {
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
	}
	start := time.Now()
	runPhase(0, killAt)
	if err := lb.Nodes[victim].Close(); err != nil {
		return nil, fmt.Errorf("loadgen: mid-run node kill: %w", err)
	}
	runPhase(killAt, repairAt)
	// The repair runs under the last phase's load, as an operator's would.
	repaired := make(chan error, 1)
	go func() { repaired <- cs.Rereplicate(victim) }()
	runPhase(repairAt, len(w.Items))
	if err := <-repaired; err != nil {
		return nil, fmt.Errorf("loadgen: rereplicate %s: %w", victim, err)
	}
	elapsed := time.Since(start)

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

	st := srv.Svc.Stats()
	if st.Cluster == nil {
		return nil, fmt.Errorf("loadgen: /v1/stats has no cluster section")
	}
	cst := st.Cluster
	res.Forwarded = cst.Forwarded
	res.ReplicaReads = cst.ReplicaReads
	res.Repairs = cst.Repairs
	res.RetriedCalls = cst.RetriedCalls
	res.Epoch = cst.Epoch
	if total := cst.Forwarded + cst.LocalEmptyAnswers; total > 0 {
		res.ForwardRatio = float64(cst.Forwarded) / float64(total)
	}
	if cst.Forwarded > 0 {
		res.ReplicaReadRatio = float64(cst.ReplicaReads) / float64(cst.Forwarded)
	}
	return res, nil
}
