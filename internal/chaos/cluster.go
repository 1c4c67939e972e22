package chaos

// The cluster fixture and the node-crash scenario on it.
//
// RunCluster is the distributed sibling of Run. One fixed, seeded ingest
// workload runs against a two-node shard cluster while a tile migrates
// between the nodes, and the explorer kills one node — via a crashing
// faultfs under its WAL/snapshot lineage — at every mutation site that
// node's storage performs, old owner and new owner alike. After each crash
// the cluster recovers the way a real deployment does: the dead node
// restarts from its surviving files, a new coordinator incarnation fences
// a higher epoch and replays the canonical record log, and resync heals
// whatever tail the node lost. Three invariants hold at every crash point:
//
//  1. Acked data survives: every record acknowledged into the canonical
//     log is served after recovery — the feature probes answer with
//     float64 bits identical to a single-process store that ingested the
//     same records and never crashed.
//
//  2. No split-brain: any query that *succeeds* during the crashed run is
//     also bit-identical to the reference — epoch fencing means a node
//     either answers correctly for a tile it owns or refuses; it never
//     serves a stale copy. Errors are tolerated (a typed refusal is a
//     correct answer); wrong or partial bits are not.
//
//  3. Epochs are monotonic: the journaled epoch of a recovered node never
//     exceeds what the coordinator issued, and the next coordinator
//     incarnation fences strictly above every surviving node epoch.
//
// RunClusterReplicated is the kill-a-replica sibling: THREE nodes with tile
// replication on — every tile has a primary and a follower, and ingest
// dual-writes both — while the migration moves the busiest tile onto the
// node that is neither. The victims are that tile's primary, then its
// follower. Invariant 2 then covers reads failed over to the follower, and
// one more joins:
//
//  4. Re-replication restores redundancy without an operator: after
//     Rereplicate(victim), probes are served entirely by survivors and
//     still match the reference bits.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
	"trajforge/internal/geo"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// Record-workload lengths, and the batch index after which the tile
// migration fires.
const (
	clusterRecordCount     = 240
	replicatedRecordCount  = 200
	coordinatorRecordCount = 200
	recordBatch            = 40
	migrateAt              = 3
)

// clusterFixture is the deterministic workload shared by every crash point
// of the cluster scenarios: records in whole batches, feature probes with
// bit-exact single-process references, and the mid-run migration.
type clusterFixture struct {
	cfg       shardstore.Config
	fcfg      rssimap.FeatureConfig
	ids       []string
	replicate bool
	batches   [][]rssimap.Record
	prefixLen []int // prefixLen[k] = records in the first k batches
	probes    []*wifi.Upload
	// refAt[k][i] is probe i's features over the first k batches on a
	// single-process store that never crashed: the bits every answer must
	// reproduce. A degraded coordinator serves a whole-batch prefix.
	refAt [][][]float64
	// The migration every run replays, fixed by the dry run: the busiest
	// tile moves from its owner to the node holding no replica of it.
	migTile  [2]int
	owner    string
	follower string // "" unless replicated
	migTo    string
}

func clusterRecords(rng *rand.Rand, n int) []rssimap.Record {
	recs := make([]rssimap.Record, n)
	for i := range recs {
		m := make(map[string]int)
		for j := 0; j < 3+rng.Intn(4); j++ {
			m[fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(24))] = -40 - rng.Intn(50)
		}
		recs[i] = rssimap.Record{
			Pos:  geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60},
			RSSI: m,
		}
	}
	return recs
}

func clusterProbe(rng *rand.Rand, n int) *wifi.Upload {
	pos := make([]geo.Point, n)
	p := geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
	for i := range pos {
		p.X = math.Abs(math.Mod(p.X+rng.NormFloat64()*4, 60))
		p.Y = math.Abs(math.Mod(p.Y+rng.NormFloat64()*4, 60))
		pos[i] = p
	}
	traj := trajectory.New(pos, time.Date(2022, 7, 1, 8, 0, 0, 0, time.UTC), time.Second)
	scans := make([]wifi.Scan, n)
	for i := range scans {
		for j := 0; j < 3; j++ {
			scans[i] = append(scans[i], wifi.Observation{
				MAC:  fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(24)),
				RSSI: -40 - rng.Intn(50),
			})
		}
	}
	return &wifi.Upload{Traj: traj, Scans: scans}
}

// newClusterFixture draws the records and probes, computes the reference
// bits, and runs the workload once on memory-only nodes to fix the
// migration every crash point replays.
func newClusterFixture(seed int64, records int, ids []string, replicate bool) (*clusterFixture, error) {
	f := &clusterFixture{
		cfg:       shardstore.DefaultConfig(),
		fcfg:      rssimap.DefaultFeatureConfig(),
		ids:       ids,
		replicate: replicate,
		prefixLen: []int{0},
	}
	rng := rand.New(rand.NewSource(seed))
	all := clusterRecords(rng, records)
	for off := 0; off < len(all); off += recordBatch {
		end := min(off+recordBatch, len(all))
		f.batches = append(f.batches, all[off:end])
		f.prefixLen = append(f.prefixLen, end)
	}
	if len(f.batches) <= migrateAt+1 {
		return nil, fmt.Errorf("chaos: workload of %d records too short for a mid-run migration", len(all))
	}
	for i := 0; i < 2; i++ {
		f.probes = append(f.probes, clusterProbe(rng, 12))
	}
	for _, n := range f.prefixLen {
		ref, err := rssimap.NewStore(f.cfg.Store, all[:n])
		if err != nil {
			return nil, err
		}
		var feats [][]float64
		for _, u := range f.probes {
			feat, err := rssimap.Features(context.Background(), ref, u, f.fcfg)
			if err != nil {
				return nil, err
			}
			feats = append(feats, feat)
		}
		f.refAt = append(f.refAt, feats)
	}

	lb, err := cluster.StartLoopback(f.cfg, ids, nil)
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	store, err := f.coordinator(lb.Addrs, "", nil)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if err := f.ingest(store); err != nil {
		return nil, fmt.Errorf("chaos: dry-run migration: %w", err)
	}
	if f.replicate && f.follower == "" {
		return nil, errors.New("chaos: replicated dry run produced no follower")
	}
	if refused, err := f.probe(store, f.ref()); err != nil || refused != nil {
		return nil, fmt.Errorf("chaos: dry-run probe: %w", errors.Join(err, refused))
	}
	return f, nil
}

// ref is the reference for the full record set.
func (f *clusterFixture) ref() [][]float64 { return f.refAt[len(f.batches)] }

// coordinator builds a coordinator over addrs in the fixture's
// configuration; dir, when set, makes it durable there on fs (nil = the
// real filesystem).
func (f *clusterFixture) coordinator(addrs map[string]string, dir string, fs fsx.FS) (*cluster.Store, error) {
	return cluster.NewStore(cluster.Options{
		Shard: f.cfg, Nodes: addrs, CallTimeout: 5 * time.Second,
		Replicate: f.replicate,
		Dir:       dir, FS: fs,
		// Retries would only re-dial the deliberately-dead victim; one
		// attempt keeps every crash point fast and deterministic.
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})
}

// ingest feeds every batch and fires the mid-run migration, returning how
// that ended. The first call — the fixture's dry run — picks the migration.
func (f *clusterFixture) ingest(store *cluster.Store) (migErr error) {
	for i, b := range f.batches {
		store.Add(b)
		if i != migrateAt {
			continue
		}
		if f.migTo == "" {
			tile, ok := store.BusiestTile()
			if !ok {
				return errors.New("no busiest tile")
			}
			assign := store.Assignment()
			f.migTile, f.owner, f.follower = tile, assign.Owner(tile), assign.Follower(tile)
			for _, id := range f.ids {
				if id != f.owner && id != f.follower {
					f.migTo = id
				}
			}
		}
		migErr = store.Migrate(f.migTile, f.migTo)
	}
	return migErr
}

// probe answers every fixture probe from store. A probe the store refuses
// ends the round and is reported as refused — legal inside a failure
// window; an answer whose bits differ from want is the error.
func (f *clusterFixture) probe(store *cluster.Store, want [][]float64) (refused, err error) {
	for i, u := range f.probes {
		feat, err := rssimap.Features(context.Background(), store, u, f.fcfg)
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err), nil
		}
		if !sameBits(feat, want[i]) {
			return nil, fmt.Errorf("probe %d diverged from reference bits", i)
		}
	}
	return nil, nil
}

// startNodes boots the fixture's nodes journaling under dir/<id>, the
// victim's storage on vfs. The victim may crash before its storage even
// opens: then a reserved dead address stands in for it, so the coordinator
// sees connection-refused and the workload proceeds degraded.
func (f *clusterFixture) startNodes(dir, victim string, vfs fsx.FS) (*cluster.Loopback, error) {
	var survivors []string
	for _, id := range f.ids {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	opts := func(id string) cluster.NodeOptions {
		nopts := cluster.NodeOptions{Dir: filepath.Join(dir, id)}
		if id == victim {
			nopts.FS = vfs
		}
		return nopts
	}
	lb, err := cluster.StartLoopback(f.cfg, survivors, opts)
	if err != nil {
		return nil, err
	}
	if v, err := cluster.StartLoopback(f.cfg, []string{victim}, opts); err == nil {
		lb.Nodes[victim], lb.Addrs[victim] = v.Nodes[victim], v.Addrs[victim]
		return lb, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lb.Close()
		return nil, err
	}
	lb.Addrs[victim] = ln.Addr().String()
	ln.Close()
	return lb, nil
}

// nodeObs is what one node-crash workload execution observed.
type nodeObs struct {
	migErr       error
	liveRefused  error // first refusal among the post-crash probes
	repairedOK   bool  // replicated: the post-repair probes all answered
	repairs      uint64
	replicaReads uint64
	epoch        uint64 // coordinator epoch when the run finished
}

// nodeCrash is the scenario on the fixture that kills a shard node.
type nodeCrash struct{ *clusterFixture }

func (sc nodeCrash) victims() []string {
	if sc.replicate {
		return []string{sc.owner, sc.follower}
	}
	return []string{sc.owner, sc.migTo}
}

// run executes the fixed workload: ingest, the mid-run migration, probes
// against the degraded cluster and — replicated — a Rereplicate of the
// victim and probes again against the repaired world.
func (sc nodeCrash) run(dir, victim string, vfs *faultfs.FS) (*nodeObs, error) {
	lb, err := sc.startNodes(dir, victim, vfs)
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	store, err := sc.coordinator(lb.Addrs, "", nil)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	obs := &nodeObs{migErr: sc.ingest(store)}
	if obs.liveRefused, err = sc.probe(store, sc.ref()); err != nil {
		return nil, fmt.Errorf("live %w", err)
	}
	if sc.replicate {
		// Background repair: re-replicate the victim's tiles onto survivors,
		// which alone must then serve reference bits. The outcome is
		// unchecked — Stats counts the repairs that completed.
		_ = store.Rereplicate(victim)
		refused, err := sc.probe(store, sc.ref())
		if err != nil {
			return nil, fmt.Errorf("post-repair %w", err)
		}
		obs.repairedOK = refused == nil
	}
	st := store.Stats()
	obs.repairs, obs.replicaReads, obs.epoch = st.Repairs, st.ReplicaReads, st.Epoch
	if !vfs.Faulted() {
		if obs.migErr != nil {
			return nil, fmt.Errorf("fault-free migration: %w", obs.migErr)
		}
		if obs.liveRefused != nil {
			return nil, fmt.Errorf("fault-free %w", obs.liveRefused)
		}
	}
	return obs, nil
}

// check restarts every node from its surviving files on a healthy
// filesystem, fences a fresh coordinator above every journaled epoch,
// replays the canonical log, and asserts the recovery invariants.
func (sc nodeCrash) check(dir string, obs *nodeObs, rep *Report) error {
	if obs.migErr != nil {
		rep.Aborted++
	} else {
		rep.Committed++
	}
	if obs.liveRefused == nil {
		rep.LiveProbeMatches++
	}
	if obs.repairedOK {
		rep.RepairMatches++
	}
	rep.Repairs += obs.repairs
	rep.ReplicaReads += obs.replicaReads

	lb, err := cluster.StartLoopback(sc.cfg, sc.ids, func(id string) cluster.NodeOptions {
		return cluster.NodeOptions{Dir: filepath.Join(dir, id)}
	})
	if err != nil {
		return fmt.Errorf("migration err %v: restart: %w", obs.migErr, err)
	}
	defer lb.Close()
	var maxNodeEpoch uint64
	for id, node := range lb.Nodes {
		// Invariant 3a: a node can only know epochs the coordinator issued.
		e := node.Epoch()
		if e > obs.epoch {
			return fmt.Errorf("node %s recovered epoch %d above the coordinator's last issued %d", id, e, obs.epoch)
		}
		maxNodeEpoch = max(maxNodeEpoch, e)
	}
	store, err := sc.coordinator(lb.Addrs, "", nil)
	if err != nil {
		return err
	}
	defer store.Close()

	// Invariant 3b: the next incarnation fences strictly above everything
	// that survived.
	if e := store.Assignment().Epoch; e <= maxNodeEpoch {
		return fmt.Errorf("new coordinator epoch %d does not fence above surviving node epoch %d", e, maxNodeEpoch)
	}

	// Canonical-log replay (what the server's WAL recovery drives); the
	// per-tile seq gate deduplicates against whatever the nodes kept.
	for _, b := range sc.batches {
		store.Add(b)
	}

	// Invariants 1 + 2: every probe answers, with reference bits.
	if refused, err := sc.probe(store, sc.ref()); err != nil || refused != nil {
		return fmt.Errorf("migration err %v: recovered %w", obs.migErr, errors.Join(err, refused))
	}
	return nil
}

// RunCluster explores kill-node-mid-migration crash points: the victims are
// the migration's source, then its target.
func RunCluster(opts Options) (*Report, error) {
	f, err := newClusterFixture(opts.Seed, clusterRecordCount, []string{"a", "b"}, false)
	if err != nil {
		return nil, err
	}
	return explore("cluster", nodeCrash{f}, opts)
}

// RunClusterReplicated explores kill-a-replica crash points: the victims
// are the busiest tile's primary, then its follower.
func RunClusterReplicated(opts Options) (*Report, error) {
	f, err := newClusterFixture(opts.Seed, replicatedRecordCount, []string{"a", "b", "c"}, true)
	if err != nil {
		return nil, err
	}
	return explore("replicated", nodeCrash{f}, opts)
}
