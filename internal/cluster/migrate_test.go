package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trajforge/internal/rssimap"
)

// migrationFixture is a 3-node loopback cluster fed the first `fed` of 800
// seeded records, with the busiest tile, its owner and the lowest-id node
// that is not the owner.
type migrationFixture struct {
	tc       *testCluster
	recs     []rssimap.Record
	tile     [2]int
	from, to string
}

func newMigrationFixture(t *testing.T, fed int) *migrationFixture {
	t.Helper()
	f := &migrationFixture{
		tc:   startCluster(t, 3, false),
		recs: randRecords(rand.New(rand.NewSource(11)), 800, 100, 100),
	}
	f.tc.store.Add(f.recs[:fed])
	tile, ok := f.tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	f.tile, f.from = tile, f.tc.store.Assignment().Owner(tile)
	ids := make([]string, 0, len(f.tc.nodes))
	for id := range f.tc.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if id != f.from {
			f.to = id
			break
		}
	}
	return f
}

// register opens the migration window the way Migrate does, without
// driving the move.
func (f *migrationFixture) register(t *testing.T) {
	t.Helper()
	if _, _, err := f.tc.store.registerMigration(f.tile, f.to); err != nil {
		t.Fatal(err)
	}
}

// inTile returns the records of recs whose position lies in tile.
func (f *migrationFixture) inTile(recs []rssimap.Record) []rssimap.Record {
	var out []rssimap.Record
	for _, r := range recs {
		if f.tc.store.cfg.TileOf(r.Pos) == f.tile {
			out = append(out, r)
		}
	}
	return out
}

// assertProbesMatch asks the cluster and a global store over want the Eq. 7
// confidence of each probe record's strongest reading at its own position,
// and fails naming the first stale answer and how many there were.
func assertProbesMatch(t *testing.T, s *Store, want, probes []rssimap.Record) {
	t.Helper()
	global := newGlobal(t, want)
	stale, first := 0, ""
	for i, p := range probes {
		mac, rssi := "", math.MinInt
		for m, v := range p.RSSI {
			if v > rssi || (v == rssi && m < mac) {
				mac, rssi = m, v
			}
		}
		wantPhi, wantNum := global.ConfidenceTol(p.Pos, mac, rssi, 5, 2)
		gotPhi, gotNum := confidenceTol(s, p.Pos, mac, rssi, 5, 2)
		if math.Float64bits(wantPhi) != math.Float64bits(gotPhi) || wantNum != gotNum {
			if stale == 0 {
				first = fmt.Sprintf("probe %d: cluster (%v, %d), global (%v, %d)", i, gotPhi, gotNum, wantPhi, wantNum)
			}
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d probes differ from the global store; first %s", stale, len(probes), first)
	}
}

// TestResyncDuringMigrationKeepsTile resyncs the owner of a tile while the
// tile migrates: the owner still serves the tile until the commit, so the
// resync must neither drop it nor leave it answering from a partial copy.
func TestResyncDuringMigrationKeepsTile(t *testing.T) {
	f := newMigrationFixture(t, 800)
	f.register(t)
	if err := f.tc.store.Resync(f.from); err != nil {
		t.Fatalf("resync %s: %v", f.from, err)
	}
	if err := sameTileLog(canonicalTileLog(f.tc.store, f.tile), tileEntries(f.tc.nodes[f.from], f.tile)); err != nil {
		t.Errorf("owner %s's copy of tile %v after the resync: %v", f.from, f.tile, err)
	}
	assertProbesMatch(t, f.tc.store, f.recs, f.inTile(f.recs))
}

// TestAbortedMigrationKeepsOwnerServing aborts a migration whose source had
// to resync first and whose target is down: the owner must come out of the
// abort holding and serving its tile.
func TestAbortedMigrationKeepsOwnerServing(t *testing.T) {
	f := newMigrationFixture(t, 800)
	f.tc.store.nodes[f.from].markUnsynced(errors.New("test: owner behind"))
	if err := f.tc.nodes[f.to].Close(); err != nil {
		t.Fatal(err)
	}
	err := f.tc.store.Migrate(f.tile, f.to)
	if err == nil || !strings.Contains(err.Error(), "install on "+f.to) {
		t.Fatalf("migrate to a closed node: %v, want an install failure", err)
	}
	if st := f.tc.store.Stats(); st.AbortedMigrations != 1 || st.MigrationInFlight {
		t.Fatalf("stats after the abort: %+v", st)
	}
	if owner := f.tc.store.Assignment().Owner(f.tile); owner != f.from {
		t.Fatalf("tile %v owned by %s after an aborted move, want %s", f.tile, owner, f.from)
	}
	assertProbesMatch(t, f.tc.store, f.recs, f.inTile(f.recs))
}

// TestAckedWriteVisibleDuringMigration acks writes to a tile while it
// migrates: a query after the ack must see them.
func TestAckedWriteVisibleDuringMigration(t *testing.T) {
	f := newMigrationFixture(t, 400)
	f.register(t)
	rest := f.inTile(f.recs[400:])
	if len(rest) == 0 {
		t.Fatal("degenerate fixture: no later records in the busiest tile")
	}
	f.tc.store.Add(rest)
	acked := append(append([]rssimap.Record(nil), f.recs[:400]...), rest...)
	assertProbesMatch(t, f.tc.store, acked, rest)
}
