package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
)

// canonicalTileLog is the coordinator's view of one tile: every canonical
// record indexed under it (owner and halo copies alike), stamped with its
// log position — what each replica's rebuilt entry log must equal.
func canonicalTileLog(s *Store, tile [2]int) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.tileIndex[tile]))
	for _, idx := range s.tileIndex[tile] {
		out = append(out, Entry{Tile: tile, Seq: uint64(idx) + 1, enc: s.log[idx]})
	}
	return out
}

// appendToLogLocked is the map-form way into the canonical log the golden
// fixtures use: encode as Add does, then append as recovery does.
func (s *Store) appendToLogLocked(recs []rssimap.Record) {
	var buf []byte
	ends := make([]int, len(recs))
	for i, rec := range recs {
		var err error
		if buf, err = appendRecord(buf, rec); err != nil {
			panic(err)
		}
		ends[i] = len(buf)
	}
	s.appendEncodedLocked(buf, 0, ends, nil)
}

// fetchTile reads one tile's entry log off a node over a fresh connection,
// the way the migration driver does.
func fetchTile(addr string, epoch uint64, tile [2]int) ([]Entry, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	dl := time.Now().Add(10 * time.Second)
	if err := writeMsg(conn, &FetchTileReq{Epoch: epoch, Tile: tile}, dl); err != nil {
		return nil, err
	}
	resp, err := readMsg(conn, dl)
	if err != nil {
		return nil, err
	}
	ts, ok := resp.(*TileState)
	if !ok || ts.Status != statusOK {
		return nil, fmt.Errorf("fetch %v from %s: %+v", tile, addr, resp)
	}
	return ts.Entries, nil
}

// sameTileLog requires got to equal want entry for entry: tile, seq,
// Float64bits position, sorted MAC→RSSI readings, contributor.
func sameTileLog(want, got []Entry) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Tile != got[i].Tile {
			return fmt.Errorf("entry %d: tile %v, want %v", i, got[i].Tile, want[i].Tile)
		}
		if w, g := entryFingerprint(want[i]), entryFingerprint(got[i]); w != g {
			return fmt.Errorf("entry %d:\n got %s\nwant %s", i, g, w)
		}
	}
	return nil
}

// checkReplicaLogs fetches every non-empty tile from every replica and
// compares it with the canonical log. With settled false (ingest still
// running) a replica may trail the coordinator, so it must hold a prefix.
func (tc *testCluster) checkReplicaLogs(settled bool) error {
	a := tc.store.Assignment()
	tc.store.mu.RLock()
	tiles := make([][2]int, 0, len(tc.store.tileIndex))
	for tile := range tc.store.tileIndex {
		tiles = append(tiles, tile)
	}
	tc.store.mu.RUnlock()
	for _, tile := range tiles {
		for id, addr := range tc.addrs {
			if !a.replicaOf(tile, id) {
				continue
			}
			got, err := fetchTile(addr, a.Epoch, tile)
			if err != nil {
				return err
			}
			want := canonicalTileLog(tc.store, tile)
			if !settled && len(got) <= len(want) {
				want = want[:len(got)]
			}
			if err := sameTileLog(want, got); err != nil {
				return fmt.Errorf("tile %v on %s: %w", tile, addr, err)
			}
		}
	}
	return nil
}

// compactedSnapshot compacts a node and returns the snapshot payload it
// wrote into dir.
func compactedSnapshot(t *testing.T, n *Node, dir string) []byte {
	t.Helper()
	if err := n.Compact(); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wal.ReadSnapshot(filepath.Join(dir, nodeSnapName))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestReplicaRebuildEquivalence pins what dropping the node's map-form
// entry log must not change. A durable 3-node replicated cluster is fed a
// seeded record set with contributors while readers, tile fetches and
// compactions run beside the ingest. Once it settles: every replica's
// fetched tile log equals the canonical log's restriction to that tile;
// each node's snapshot bytes equal the bytes it writes after close →
// reopen → compact; and after a live migration plus a killed primary the
// cluster still answers bit-identically to a rebuilt single-process store.
func TestReplicaRebuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const width, height = 120, 120
	recs := randRecords(rng, 1500, width, height)
	for i := range recs {
		recs[i].Contributor = fmt.Sprintf("dev-%d", i%11)
	}
	tc := bootCluster(t, 3, true, Options{Replicate: true})
	tc.store.Add(recs[:300])

	// Ingest, query, fetch and compact side by side.
	var ingest, side sync.WaitGroup
	stop := make(chan struct{})
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for off := 300; off < 1200; off += 30 {
			tc.store.Add(recs[off : off+30])
		}
	}()
	background := func(seed int64, step func(r *rand.Rand)) {
		side.Add(1)
		go func() {
			defer side.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					step(r)
				}
			}
		}()
	}
	for w := int64(0); w < 2; w++ {
		background(100+w, func(r *rand.Rand) {
			o := geo.Point{X: r.Float64() * width, Y: r.Float64() * height}
			tc.store.ConfidenceTol(o, fmt.Sprintf("02:4e:00:00:00:%02x", r.Intn(40)), -55, 5, 1)
		})
	}
	background(200, func(*rand.Rand) {
		if err := tc.checkReplicaLogs(false); err != nil {
			t.Error(err)
		}
	})
	background(300, func(r *rand.Rand) {
		if err := tc.nodes[fmt.Sprintf("n%d", 1+r.Intn(3))].Compact(); err != nil {
			t.Error(err)
		}
	})
	ingest.Wait()
	close(stop)
	side.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Settled: every replica holds exactly the canonical restriction.
	if err := tc.checkReplicaLogs(true); err != nil {
		t.Fatal(err)
	}
	var replicas uint64
	for _, n := range tc.nodes {
		replicas += n.handleStats().Entries
	}
	var canonical uint64
	for _, ns := range tc.store.Stats().Nodes {
		canonical += uint64(ns.Entries)
	}
	if replicas != 2*canonical {
		t.Fatalf("nodes count %d entries, want two replicas of the canonical %d", replicas, canonical)
	}

	// Snapshot bytes survive close → reopen → compact unchanged, and the
	// reopened nodes (tiles loaded from the snapshot) still hand out the
	// canonical logs.
	for id, n := range tc.nodes {
		before := compactedSnapshot(t, n, tc.dirs[id])
		if after := compactedSnapshot(t, tc.restartNode(t, id), tc.dirs[id]); !bytes.Equal(before, after) {
			t.Fatalf("node %s: snapshot changed across reopen (%d vs %d bytes)", id, len(before), len(after))
		}
	}
	for id := range tc.nodes {
		if err := tc.store.Resync(id); err != nil {
			t.Fatalf("resync %s: %v", id, err)
		}
	}
	if err := tc.checkReplicaLogs(true); err != nil {
		t.Fatal(err)
	}

	// Live-migrate the busiest tile to the node holding no replica of it
	// while the last records arrive, then kill the tile's new primary.
	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	a := tc.store.Assignment()
	var to string
	for id := range tc.nodes {
		if !a.replicaOf(tile, id) {
			to = id
		}
	}
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for off := 1200; off < len(recs); off += 30 {
			tc.store.Add(recs[off : off+30])
		}
	}()
	if err := tc.store.Migrate(tile, to); err != nil {
		t.Fatal(err)
	}
	ingest.Wait()
	if err := tc.checkReplicaLogs(true); err != nil {
		t.Fatal(err)
	}
	if err := tc.nodes[to].Close(); err != nil {
		t.Fatal(err)
	}
	sharded, err := shardstore.New(shardstore.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	assertClusterMatchesSharded(t, rng, tc.store, sharded, width, height)
	if tc.store.Stats().ReplicaReads == 0 {
		t.Fatal("no query failed over to a follower after the primary died")
	}
}

// cityRecords generates n records shaped like served ingest: a dozen
// readings each out of a few hundred APs, a few dozen contributors, spread
// so that most records also land in a neighbouring tile's halo.
func cityRecords(rng *rand.Rand, n int) []rssimap.Record {
	const side = 400
	recs := make([]rssimap.Record, n)
	for i := range recs {
		m := make(map[string]int, 12)
		for len(m) < 12 {
			m[fmt.Sprintf("02:4e:00:00:%02x:%02x", rng.Intn(2), rng.Intn(150))] = -40 - rng.Intn(50)
		}
		recs[i] = rssimap.Record{
			Pos:         geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
			RSSI:        m,
			Contributor: fmt.Sprintf("dev-%d", rng.Intn(40)),
		}
	}
	return recs
}

// ingestCity feeds recs to a fresh 3-node replicated in-process cluster in
// upload-sized batches. It returns the time the ingest took, the live-heap
// growth of the whole process (the coordinator's canonical log included;
// recs itself is live before and after), the number of (tile, replica)
// entries the nodes report holding, and the heap objects the ingest itself
// allocated, coordinator and nodes together.
func ingestCity(t testing.TB, recs []rssimap.Record) (elapsed time.Duration, heapBytes, replicaEntries, mallocs uint64) {
	const batch = 25
	var before, booted, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tc := bootCluster(t, 3, false, Options{Replicate: true})
	runtime.ReadMemStats(&booted)
	start := time.Now()
	for off := 0; off < len(recs); off += batch {
		tc.store.Add(recs[off:min(off+batch, len(recs))])
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	mallocs = after.Mallocs - booted.Mallocs
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	for _, n := range tc.nodes {
		replicaEntries += n.handleStats().Entries
	}
	tc.close()
	if after.HeapAlloc > before.HeapAlloc {
		heapBytes = after.HeapAlloc - before.HeapAlloc
	}
	return elapsed, heapBytes, replicaEntries, mallocs
}

// heapPerReplicaBudget bounds the live heap a cluster may hold per
// (tile, replica) entry, coordinator log included: the 391 B measured with
// the canonical log held as encoded bytes, plus 10 %. With the log as
// map-form records the same run measured 495 B, and with a map-form entry
// log kept beside the nodes' tile stores as well, 1342 B.
const heapPerReplicaBudget = 430

// TestReplicaHeapPerRecord is the memory pin for the node's tile state: a
// second retained copy of each applied record shows up here as a multiple
// of the budget.
func TestReplicaHeapPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 20k records")
	}
	_, heap, entries, _ := ingestCity(t, cityRecords(rand.New(rand.NewSource(7)), 20000))
	if entries == 0 {
		t.Fatal("nodes report no entries")
	}
	per := float64(heap) / float64(entries)
	t.Logf("%d replica entries, %.1f MiB live, %.0f B/replica-record", entries, float64(heap)/(1<<20), per)
	if per > heapPerReplicaBudget {
		t.Fatalf("%.0f B of live heap per replica entry, budget %d", per, heapPerReplicaBudget)
	}
}

// BenchmarkClusterIngest ingests a seeded 5k-record city into a fresh
// 3-node replicated cluster per iteration; cluster boot and record
// generation stay outside ns/record.
func BenchmarkClusterIngest(b *testing.B) {
	recs := cityRecords(rand.New(rand.NewSource(7)), 5000)
	var elapsed time.Duration
	var heap, entries, mallocs uint64
	for i := 0; i < b.N; i++ {
		d, h, e, m := ingestCity(b, recs)
		elapsed, heap, entries, mallocs = elapsed+d, h, e, mallocs+m
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	b.ReportMetric(float64(mallocs)/float64(b.N*len(recs)), "allocs/record")
	b.ReportMetric(float64(heap)/float64(entries), "B/replica-record")
}

// TestAddRefusesUnencodableBatch: a record the wire codec cannot carry is
// refused before it reaches the canonical log, so it can never wedge a
// node's ingest stream or its resync.
func TestAddRefusesUnencodableBatch(t *testing.T) {
	tc := bootCluster(t, 2, false, Options{})
	good := randRecords(rand.New(rand.NewSource(3)), 40, 60, 60)
	bad := rssimap.Record{Pos: geo.Point{X: 1, Y: 1}, RSSI: map[string]int{"02:4e:00:00:00:01": 1 << 20}}
	tc.store.Add(append([]rssimap.Record{bad}, good[:5]...))
	if n := tc.store.Len(); n != 0 {
		t.Fatalf("canonical log holds %d records of a refused batch", n)
	}
	if st := tc.store.Stats(); st.RefusedBatches != 1 || st.RefusedRecords != 6 {
		t.Fatalf("refused %d batches / %d records, want 1 / 6", st.RefusedBatches, st.RefusedRecords)
	}
	// The scan form is encoded directly and must be refused the same way: an
	// RSSI outside int16, then a MAC over 255 bytes, each beside good points.
	for i, obs := range []wifi.Observation{
		{MAC: "02:4e:00:00:00:01", RSSI: math.MaxInt16 + 1},
		{MAC: strings.Repeat("m", 256), RSSI: -50},
	} {
		u := randUpload(rand.New(rand.NewSource(int64(4+i))), 10, 60, 60)
		u.Scans[7] = append(u.Scans[7], obs)
		tc.store.AddUploads([]*wifi.Upload{u})
		if st := tc.store.Stats(); st.Records != 0 || st.RefusedBatches != uint64(2+i) || st.RefusedRecords != uint64(6+10*(i+1)) {
			t.Fatalf("after unencodable upload %d: %d records, refused %d batches / %d records",
				i, st.Records, st.RefusedBatches, st.RefusedRecords)
		}
	}
	tc.store.Add(good)
	st := tc.store.Stats()
	if st.Records != len(good) {
		t.Fatalf("%d records after a good batch, want %d", st.Records, len(good))
	}
	if st.RefusedBatches != 3 {
		t.Fatalf("a good batch moved refused_batches to %d", st.RefusedBatches)
	}
	for _, ns := range st.Nodes {
		if ns.Unsynced {
			t.Fatalf("node %s unsynced after a refused batch", ns.ID)
		}
	}
}

// TestJournalFailureCountsRefusedBatch: once the coordinator journal has
// failed closed, every later batch is refused — and counted, not silent.
func TestJournalFailureCountsRefusedBatch(t *testing.T) {
	tc := bootCluster(t, 2, false, Options{Dir: t.TempDir()})
	recs := randRecords(rand.New(rand.NewSource(5)), 30, 60, 60)
	tc.store.Add(recs[:10])
	if err := tc.store.wlog.Close(); err != nil { // the next append fails
		t.Fatal(err)
	}
	tc.store.Add(recs[10:])
	st := tc.store.Stats()
	if st.Records != 10 || st.RefusedBatches != 1 || st.RefusedRecords != 20 || !st.Degraded {
		t.Fatalf("after a journal failure: %d records, refused %d batches / %d records, degraded %v",
			st.Records, st.RefusedBatches, st.RefusedRecords, st.Degraded)
	}
}

// TestHandleAddKeepsNoAliasOfTheFrame: decoded entries are views over the
// request frame, and nothing the node keeps may go on aliasing it once
// handleAdd returns (a frame is garbage after its request).
// A durable node is fed one decoded add; then the frame is overwritten while
// the node is queried, fetched from and compacted (under -race a retained
// alias is a reported race, and without it a changed byte). The tile store,
// the rebuilt tile log, the snapshot and the journaled frame must all equal
// those of a control node fed the same entries from an untouched frame.
func TestHandleAddKeepsNoAliasOfTheFrame(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(9)), 60, 40, 40)
	cfg := shardstore.DefaultConfig()
	entries := make([]Entry, len(recs))
	for i, rec := range recs {
		rec.Contributor = fmt.Sprintf("dev-%d", i%3)
		entries[i] = Entry{Tile: cfg.TileOf(rec.Pos), Seq: uint64(i) + 1, Rec: rec}
	}
	assign, err := NewAssignment([]string{"n1"})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(dir string, clobber bool) *Node {
		t.Helper()
		n, err := NewNode("n1", cfg, NodeOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if ack := n.handleAssign(&AssignReq{Assign: assign}); ack.Status != statusOK {
			t.Fatalf("assign: %+v", ack)
		}
		frame, err := EncodeFrame(&AddReq{Epoch: assign.Epoch, Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if ack := n.handleAdd(msg.(*AddReq), false); ack.Status != statusOK {
			t.Fatalf("add: %+v", ack)
		}
		if !clobber {
			return n
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range frame {
				frame[i] = 0xAA
			}
		}()
		var sc confScratch
		for _, e := range entries[:10] {
			n.handleConf(&ConfReq{Epoch: assign.Epoch, Cfg: rssimap.DefaultFeatureConfig(), Points: []ConfPoint{{
				Tile: e.Tile, Pos: e.Rec.Pos, Scan: wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -50}}}}}, &sc)
			n.handleFetch(&FetchTileReq{Epoch: assign.Epoch, Tile: e.Tile})
		}
		wg.Wait()
		return n
	}
	dir := t.TempDir()
	got, want := feed(dir, true), feed(t.TempDir(), false)

	state := func(n *Node) []byte {
		t.Helper()
		n.mu.Lock()
		defer n.mu.Unlock()
		buf, err := n.snapshotLocked()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	wantState := state(want)
	if !bytes.Equal(state(got), wantState) {
		t.Fatal("tile stores changed when the request frame was overwritten")
	}
	for tile := range want.tiles {
		if err := sameTileLog(tileEntries(want, tile), tileEntries(got, tile)); err != nil {
			t.Fatalf("tile %v log after the overwrite: %v", tile, err)
		}
	}
	// The journaled frame: a node recovered from the WAL alone.
	walOnly := t.TempDir()
	data, err := os.ReadFile(filepath.Join(dir, nodeWALName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walOnly, nodeWALName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := NewNode("n1", cfg, NodeOptions{Dir: walOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !bytes.Equal(state(recovered), wantState) {
		t.Fatal("the journaled frame changed when the request frame was overwritten")
	}
	if !bytes.Equal(compactedSnapshot(t, got, dir), wantState) {
		t.Fatal("the compacted snapshot changed when the request frame was overwritten")
	}
}

// TestHandleAddCompletesLocalEntries: an entry that did not come off a frame
// — a map-form Rec, or canonical bytes alone, the way a log hands them out —
// builds the node state its decoded form builds, and bytes no decoder would
// accept are refused before anything is applied.
func TestHandleAddCompletesLocalEntries(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(11)), 40, 40, 40)
	cfg := shardstore.DefaultConfig()
	assign, err := NewAssignment([]string{"n1"})
	if err != nil {
		t.Fatal(err)
	}
	mapForm, bytesOnly := make([]Entry, len(recs)), make([]Entry, len(recs))
	for i, rec := range recs {
		enc, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		mapForm[i] = Entry{Tile: cfg.TileOf(rec.Pos), Seq: uint64(i) + 1, Rec: rec}
		bytesOnly[i] = Entry{Tile: mapForm[i].Tile, Seq: mapForm[i].Seq, enc: enc}
	}
	frame, err := EncodeFrame(&AddReq{Epoch: assign.Epoch, Entries: mapForm})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(entries []Entry) (*Node, *Ack) {
		t.Helper()
		n, err := NewNode("n1", cfg, NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if ack := n.handleAssign(&AssignReq{Assign: assign}); ack.Status != statusOK {
			t.Fatalf("assign: %+v", ack)
		}
		return n, n.handleAdd(&AddReq{Epoch: assign.Epoch, Entries: entries}, false)
	}
	state := func(n *Node) []byte {
		t.Helper()
		buf, err := n.snapshotLocked()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	want, ack := feed(msg.(*AddReq).Entries)
	if ack.Status != statusOK {
		t.Fatalf("decoded add: %+v", ack)
	}
	for name, entries := range map[string][]Entry{"map-form": mapForm, "bytes-only": bytesOnly} {
		n, ack := feed(entries)
		if ack.Status != statusOK {
			t.Fatalf("%s add: %+v", name, ack)
		}
		if !bytes.Equal(state(n), state(want)) {
			t.Fatalf("%s entries built a different node than their decoded form", name)
		}
	}
	last := &bytesOnly[len(bytesOnly)-1]
	*last = Entry{Tile: last.Tile, Seq: last.Seq, enc: last.enc[:recMinBytes-1]} // the feed above completed the old one
	if n, ack := feed(bytesOnly); ack.Status != statusFailed || len(n.tiles) != 0 {
		t.Fatalf("truncated record bytes: %+v, %d tiles applied", ack, len(n.tiles))
	}
}
