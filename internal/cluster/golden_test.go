package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/wal"
)

// Golden vectors: the snapshot payloads PR 13's tree (the last commit with
// cluster.reader and per-owner generation switches) wrote for a fixed
// three-tile fixture. Both must still be what this tree writes for the
// fixture, and must load and re-snapshot to themselves.
const (
	goldenNodeSnapshot  = "030000000000000001030002006e3102006e3202006e3301000000010000000000000002006e320100000000000000ffffffff02006e330300000000000000ffffffff03000000000000000100000000000000ffffffff0300000000000000000000000000294000000000000029c000000b6465766963652d303030370000000000000000050000000000000002000000000000000000000001000000000000000000000000002940000000000000294002001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff0b6465766963652d30303432000000000000000005000000000000000000000000802a40000000000080274001001130323a34653a30303a30303a30303a3037c4ff000100000000000000020000000000000001000000010000000000000002000000000000000000000000c042400100000000002940020000ff7f026170008000"
	goldenCoordSnapshot = "040000000000000000002940000000000000294002001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff0b6465766963652d303034320000000000c042400100000000002940020000ff7f026170008000000000000000294000000000000029c000000b6465766963652d303030370000000000802a40000000000080274001001130323a34653a30303a30303a30303a3037c4ff00030000000000000001030002006e3102006e3202006e3301000000010000000000000002006e320100000000000000ffffffff02006e33"
)

func goldenAssignment() Assignment {
	return Assignment{
		Epoch: 3, Replicate: true, Members: []string{"n1", "n2", "n3"},
		Overrides:         map[[2]int]string{{1, 0}: "n2"},
		FollowerOverrides: map[[2]int]string{{0, -1}: "n3"},
	}
}

// goldenRecords sit at tile centres (tile size 25), clear of every halo.
func goldenRecords() []rssimap.Record {
	return []rssimap.Record{
		{Pos: geo.Point{X: 12.5, Y: 12.5}, RSSI: map[string]int{"02:4e:00:00:00:07": -91, "02:4e:00:00:00:08": -44}, Contributor: "device-0042"},
		{Pos: geo.Point{X: 37.5, Y: math.Nextafter(12.5, 13)}, RSSI: map[string]int{"ap": math.MinInt16, "": math.MaxInt16}},
		{Pos: geo.Point{X: 12.5, Y: -12.5}, RSSI: map[string]int{}, Contributor: "device-0007"},
		{Pos: geo.Point{X: 13.25, Y: 11.75}, RSSI: map[string]int{"02:4e:00:00:00:07": -60}},
	}
}

func goldenEntries() []Entry {
	cfg := shardstore.DefaultConfig()
	recs := goldenRecords()
	seqs := []uint64{1, 2, 3, 5}
	entries := make([]Entry, len(recs))
	for i, rec := range recs {
		entries[i] = Entry{Tile: cfg.TileOf(rec.Pos), Seq: seqs[i], Rec: rec}
	}
	return entries
}

func checkGolden(t *testing.T, name, want string, got []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("%s:\n got %s\nwant %s", name, h, want)
	}
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenNodeSnapshot(t *testing.T) {
	n, err := NewNode("n1", shardstore.DefaultConfig(), NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ack := n.handleAssign(&AssignReq{Assign: goldenAssignment()}); ack.Status != statusOK {
		t.Fatalf("assign: %+v", ack)
	}
	if ack := n.handleAdd(&AddReq{Epoch: 3, Entries: goldenEntries()}); ack.Status != statusOK {
		t.Fatalf("add: %+v", ack)
	}
	if len(n.tiles) != 3 {
		t.Fatalf("fixture spans %d tiles, want 3", len(n.tiles))
	}
	buf, err := n.snapshotLocked()
	checkGolden(t, "node snapshot", goldenNodeSnapshot, buf, err)

	fresh, err := NewNode("n1", shardstore.DefaultConfig(), NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.loadSnapshot(unhex(t, goldenNodeSnapshot)); err != nil {
		t.Fatal(err)
	}
	if fresh.epoch != 3 || len(fresh.tiles) != 3 {
		t.Fatalf("loaded epoch %d, %d tiles", fresh.epoch, len(fresh.tiles))
	}
	buf, err = fresh.snapshotLocked()
	checkGolden(t, "node snapshot reloaded", goldenNodeSnapshot, buf, err)
}

// The cluster lineage fixture: testdata/lineage_pr13 holds the coordinator
// and node data directories PR 13's tree left behind after
// driveClusterFixture (checkpoint, more ingest, one live migration, no
// Close), the feature bits its live cluster answered for the probe
// (features.hex) and the SHA-256 of each node's full state (states.txt).

const clusterFixtureDir = "testdata/lineage_pr13"

var clusterFixtureFiles = map[string][]string{
	"coord": {coordWALName, coordSnapName},
	"n1":    {nodeWALName, nodeSnapName},
	"n2":    {nodeWALName, nodeSnapName},
	"n3":    {nodeWALName, nodeSnapName},
}

func clusterFixtureRecords() []rssimap.Record {
	recs := randRecords(rand.New(rand.NewSource(1401)), 150, 90, 90)
	for i := range recs {
		if i%3 != 0 {
			recs[i].Contributor = fmt.Sprintf("device-%02d", i%7)
		}
	}
	return recs
}

// bootFixtureCluster boots three durable nodes and a durable replicated
// coordinator over the directories under root.
func bootFixtureCluster(t *testing.T, root string) *testCluster {
	t.Helper()
	tc := &testCluster{nodes: map[string]*Node{}, addrs: map[string]string{}, dirs: map[string]string{}}
	for _, id := range []string{"n1", "n2", "n3"} {
		tc.dirs[id] = filepath.Join(root, id)
		node, err := NewNode(id, shardstore.DefaultConfig(), NodeOptions{Dir: tc.dirs[id]})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[id], tc.addrs[id] = node, addr.String()
	}
	store, err := NewStore(Options{
		Shard: shardstore.DefaultConfig(), Nodes: tc.addrs,
		Replicate: true, Dir: filepath.Join(root, "coord"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.store = store
	t.Cleanup(tc.close)
	return tc
}

func clusterProbeFeatures(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	rng := rand.New(rand.NewSource(1402))
	for i := 0; i < 3; i++ {
		feat, err := rssimap.Features(context.Background(), s, randUpload(rng, 20, 90, 90), rssimap.DefaultFeatureConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range feat {
			fmt.Fprintf(&b, "%016x\n", math.Float64bits(f))
		}
	}
	return b.String()
}

func nodeStateSums(t *testing.T, nodes map[string]*Node) string {
	t.Helper()
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		n := nodes[id]
		n.mu.Lock()
		payload, err := n.snapshotLocked()
		n.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", id, sha256.Sum256(payload))
	}
	return b.String()
}

// driveClusterFixture runs the fixture workload under root and leaves the
// directories as a crash would. It returns the live cluster's probe
// features and per-node state sums.
func driveClusterFixture(t *testing.T, root string) (features, states string) {
	t.Helper()
	tc := bootFixtureCluster(t, root)
	recs := clusterFixtureRecords()
	tc.store.Add(recs[:100])
	if err := tc.store.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if err := tc.nodes[id].Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for off := 100; off < len(recs); off += 25 {
		tc.store.Add(recs[off : off+25])
	}
	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	a := tc.store.Assignment()
	for _, id := range []string{"n1", "n2", "n3"} {
		if !a.replicaOf(tile, id) {
			if err := tc.store.Migrate(tile, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return clusterProbeFeatures(t, tc.store), nodeStateSums(t, tc.nodes)
}

func copyClusterFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for sub, names := range clusterFixtureFiles {
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(src, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sub, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

func readFixtureText(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(clusterFixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestParentWrittenClusterLineagesRecover reopens the node and coordinator
// directories the parent commit wrote. Each node must come back, from its
// own snapshot and WAL alone, to the exact state the parent's node held;
// the coordinator must recover its canonical log and serve the probe with
// the parent's feature bits.
func TestParentWrittenClusterLineagesRecover(t *testing.T) {
	root := copyClusterFixture(t, clusterFixtureDir)
	nodes := map[string]*Node{}
	for _, id := range []string{"n1", "n2", "n3"} {
		n, err := NewNode(id, shardstore.DefaultConfig(), NodeOptions{Dir: filepath.Join(root, id)})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	if got, want := nodeStateSums(t, nodes), readFixtureText(t, "states.txt"); got != want {
		t.Fatalf("node states recovered from the parent's directories:\n%swant:\n%s", got, want)
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tc := bootFixtureCluster(t, root)
	if got := tc.store.Len(); got != 150 {
		t.Fatalf("coordinator recovered %d canonical records, want 150", got)
	}
	if got, want := clusterProbeFeatures(t, tc.store), readFixtureText(t, "features.hex"); got != want {
		t.Fatalf("features from the recovered cluster differ from the parent's")
	}
}

// TestClusterLineagesReachParentState drives the fixture workload on this
// tree: the live answers and every node's state must equal the parent's,
// before and after a crash-reopen of all four lineages.
func TestClusterLineagesReachParentState(t *testing.T) {
	root := t.TempDir()
	features, states := driveClusterFixture(t, root)
	if want := readFixtureText(t, "features.hex"); features != want {
		t.Fatal("live features differ from the parent's")
	}
	if want := readFixtureText(t, "states.txt"); states != want {
		t.Fatalf("node states:\n%swant:\n%s", states, want)
	}
	// The coordinator journal is written by one goroutine in canonical
	// order, so its bytes are reproducible; compare them to the parent's.
	for _, name := range clusterFixtureFiles["coord"] {
		got, err := os.ReadFile(filepath.Join(root, "coord", name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(clusterFixtureDir, "coord", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("coord/%s differs from the parent's file (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	reopened := bootFixtureCluster(t, copyClusterFixture(t, root))
	if got := clusterProbeFeatures(t, reopened.store); got != features {
		t.Fatal("features changed across crash-reopen")
	}
}

// openGoldenCoordinator returns a node-less coordinator with an open, empty
// durability directory — enough to load and write checkpoints.
func openGoldenCoordinator(t *testing.T, dir string) *Store {
	t.Helper()
	cfg := shardstore.DefaultConfig()
	s := &Store{cfg: cfg, opts: Options{Shard: cfg, Dir: dir}, tileIndex: make(map[[2]int][]int)}
	if _, err := s.openDurability(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGoldenCoordinatorSnapshot(t *testing.T) {
	compact := func(s *Store) []byte {
		t.Helper()
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		_, payload, err := wal.ReadSnapshot(filepath.Join(s.opts.Dir, coordSnapName))
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	s := openGoldenCoordinator(t, t.TempDir())
	s.appendToLogLocked(goldenRecords())
	s.assign = goldenAssignment()
	checkGolden(t, "coordinator snapshot", goldenCoordSnapshot, compact(s), nil)
	if err := s.wlog.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := openGoldenCoordinator(t, t.TempDir())
	a, err := fresh.loadCoordSnapshot(unhex(t, goldenCoordSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.log) != 4 || len(fresh.tileIndex) != 3 || a.Epoch != 3 {
		t.Fatalf("loaded %d records over %d tiles at epoch %d", len(fresh.log), len(fresh.tileIndex), a.Epoch)
	}
	fresh.assign = *a
	checkGolden(t, "coordinator snapshot reloaded", goldenCoordSnapshot, compact(fresh), nil)
	if err := fresh.wlog.Close(); err != nil {
		t.Fatal(err)
	}
}
