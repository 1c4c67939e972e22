package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// entryFingerprint canonicalises an Entry — sequence, position bits, sorted
// RSSI readings, and contributor identity — so two tile logs can be compared
// for exact provenance equality.
func entryFingerprint(e Entry) string {
	rec := e.Record() // the map form, whichever form the entry carries
	macs := make([]string, 0, len(rec.RSSI))
	for mac := range rec.RSSI {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d pos=%#x/%#x contrib=%q",
		e.Seq, math.Float64bits(rec.Pos.X), math.Float64bits(rec.Pos.Y), rec.Contributor)
	for _, mac := range macs {
		fmt.Fprintf(&b, " %s=%d", mac, rec.RSSI[mac])
	}
	return b.String()
}

// tileEntries rebuilds a node's entry log for one tile.
func tileEntries(n *Node, tile [2]int) []Entry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ts := n.tiles[tile]
	if ts == nil {
		return nil
	}
	return ts.entries(tile)
}

// TestClusterMigrationPreservesProvenance pins the acceptance criterion that
// contributor identity survives a tile migration bit-identically: the
// catch-up replays it from the coordinator's canonical log, the target
// journals it as ordinary adds, and a durable restart replays it — all
// without touching a single byte.
func TestClusterMigrationPreservesProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const width, height = 100, 100
	recs := randRecords(rng, 600, width, height)
	for i := range recs {
		recs[i].Contributor = fmt.Sprintf("dev-%d", i%7)
	}

	tc := startCluster(t, 3, true)
	tc.store.Add(recs)

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

	want := tileEntries(tc.nodes[from], tile)
	if len(want) == 0 {
		t.Fatalf("source node %s holds no entries for tile %v", from, tile)
	}
	seen := make(map[string]bool)
	for _, e := range want {
		if e.Rec.Contributor == "" {
			t.Fatal("fixture record lost its contributor before migration")
		}
		seen[e.Rec.Contributor] = true
	}
	if len(seen) < 2 {
		t.Fatalf("degenerate fixture: busiest tile fed by %d contributor(s)", len(seen))
	}

	if err := tc.store.Migrate(tile, to); err != nil {
		t.Fatalf("migrate %v from %s to %s: %v", tile, from, to, err)
	}

	got := tileEntries(tc.nodes[to], tile)
	if len(got) != len(want) {
		t.Fatalf("target holds %d entries, source had %d", len(got), len(want))
	}
	for i := range want {
		if w, g := entryFingerprint(want[i]), entryFingerprint(got[i]); w != g {
			t.Fatalf("entry %d changed in flight:\nsource %s\ntarget %s", i, w, g)
		}
	}
	if left := tileEntries(tc.nodes[from], tile); len(left) != 0 {
		t.Fatalf("source still holds %d entries after handoff", len(left))
	}

	// Restart the target from its durable dir: the migrated tile — with
	// every contributor string — must replay from snapshot + WAL exactly.
	replayed := tileEntries(tc.restartNode(t, to), tile)
	if len(replayed) != len(want) {
		t.Fatalf("restart replayed %d entries, want %d", len(replayed), len(want))
	}
	for i := range want {
		if w, g := entryFingerprint(want[i]), entryFingerprint(replayed[i]); w != g {
			t.Fatalf("entry %d changed across restart:\nbefore %s\nafter  %s", i, w, g)
		}
	}

	// The coordinator's canonical log keeps the full contributor multiset,
	// and the migrated cluster still answers bit-identically to a
	// single-process store over the same records.
	wantByContrib := make(map[string]int)
	for _, r := range recs {
		wantByContrib[r.Contributor]++
	}
	gotByContrib := make(map[string]int)
	for _, r := range tc.store.Records() {
		gotByContrib[r.Contributor]++
	}
	if len(gotByContrib) != len(wantByContrib) {
		t.Fatalf("contributor set shrank: %d vs %d identities", len(gotByContrib), len(wantByContrib))
	}
	for name, n := range wantByContrib {
		if gotByContrib[name] != n {
			t.Fatalf("contributor %q holds %d canonical records, want %d", name, gotByContrib[name], n)
		}
	}
	global := newGlobal(t, recs)
	assertClusterMatchesGlobal(t, rng, tc.store, global, width, height)
}
