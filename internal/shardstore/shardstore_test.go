// The tile geometry's guarantee — a query answered from its owning tile
// alone is bit-identical to the global store — checked where it is used:
// every test holds a 3-node loopback cluster, whose halo fan-out runs
// through Config.TilesFor, against the global rssimap.Store. External test
// package because internal/cluster imports shardstore.
package shardstore_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// randRecords builds crowdsourced records spread over a width×height area,
// dense enough that reference queries and counting areas are non-trivial.
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

// newPair builds the global store and a 3-node loopback cluster on the
// default tiling over the same records.
func newPair(t *testing.T, recs []rssimap.Record) (*rssimap.Store, *cluster.Store) {
	t.Helper()
	cfg := shardstore.DefaultConfig()
	global, err := rssimap.NewStore(cfg.Store, recs)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := cluster.StartLoopback(cfg, []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	cs, err := cluster.NewStore(cluster.Options{Shard: cfg, Nodes: lb.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cs.Add(recs)
	return global, cs
}

// pointConfs is a one-point Confidences call.
func pointConfs(b rssimap.Backend, o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) ([]rssimap.PointConfidence, error) {
	ans := make([]rssimap.Answer, 1)
	_, err := b.Confidences(context.Background(), ans, []trajectory.Point{{Pos: o}}, []wifi.Scan{scan}, cfg, nil)
	return ans[0].Confs, err
}

// confidenceTol asks b for the Eq. 7 answer rssimap.Store.ConfidenceTol
// gives: one reported (mac, rssi) as a one-observation TopK-1 scan.
func confidenceTol(b rssimap.Backend, o geo.Point, mac string, rssi int, r float64, tol rssimap.Tolerance) (phi float64, num int) {
	pc, err := pointConfs(b, o, wifi.Scan{{MAC: mac, RSSI: rssi}}, rssimap.FeatureConfig{R: r, TopK: 1, Tol: tol})
	if err != nil {
		panic(err)
	}
	return pc[0].Phi, pc[0].Num
}

func TestConfigValidation(t *testing.T) {
	if err := shardstore.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	undersized := shardstore.DefaultConfig()
	undersized.TileSize = 10 // < 2*(5+3)
	noRadius := shardstore.DefaultConfig()
	noRadius.MaxQueryRadius = 0
	badStore := shardstore.DefaultConfig()
	badStore.Store.R = -1
	for _, tc := range []struct {
		name     string
		cfg      shardstore.Config
		geometry bool // Validate itself must refuse it, not only the tile store
	}{
		{"undersized tile", undersized, true},
		{"zero query radius", noRadius, true},
		{"invalid per-tile store config", badStore, false},
	} {
		if tc.geometry && tc.cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if n, err := cluster.NewNode("n1", tc.cfg, cluster.NodeOptions{}); err == nil {
			n.Close()
			t.Errorf("%s: a node accepted it", tc.name)
		}
	}
}

func TestConfidenceMatchesGlobalStore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width, height = 120, 90
	global, cs := newPair(t, randRecords(rng, 1500, width, height))

	for trial := 0; trial < 500; trial++ {
		o := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height}
		mac := fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(40))
		rssi := -40 - rng.Intn(50)
		r := 0.5 + rng.Float64()*4.5 // up to MaxQueryRadius
		tol := rssimap.Tolerance(rng.Intn(3))
		gPhi, gNum := global.ConfidenceTol(o, mac, rssi, r, tol)
		cPhi, cNum := confidenceTol(cs, o, mac, rssi, r, tol)
		if gNum != cNum || math.Float64bits(gPhi) != math.Float64bits(cPhi) {
			t.Fatalf("trial %d at %v r=%g: global (%v, %d) != cluster (%v, %d)",
				trial, o, r, gPhi, gNum, cPhi, cNum)
		}
	}
}

func TestFeaturesBitIdenticalToGlobalStore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width, height = 120, 90
	global, cs := newPair(t, randRecords(rng, 1500, width, height))

	cfg := rssimap.DefaultFeatureConfig()
	uploads := make([]*wifi.Upload, 12)
	for i := range uploads {
		uploads[i] = randUpload(rng, 25, width, height)
	}
	for i, u := range uploads {
		g, err := rssimap.Features(context.Background(), global, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := rssimap.Features(context.Background(), cs, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVector(t, fmt.Sprintf("upload %d", i), g, c)
	}
	// The batch path must agree with the serial path on both backends.
	gb, err := rssimap.BatchFeatures(global, uploads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := rssimap.BatchFeatures(cs, uploads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range uploads {
		assertSameVector(t, fmt.Sprintf("batch upload %d", i), gb[i], cb[i])
	}
}

func assertSameVector(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: dim %d != %d", label, len(a), len(b))
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("%s feature %d: %v != %v", label, j, a[j], b[j])
		}
	}
}

func TestIncrementalAddMatchesGlobalStore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const width, height = 100, 80
	initial := randRecords(rng, 600, width, height)
	global, cs := newPair(t, initial)

	cfg := rssimap.DefaultFeatureConfig()
	u := randUpload(rng, 20, width, height)
	for round := 0; round < 3; round++ {
		more := randRecords(rng, 200, width, height)
		global.Add(more)
		cs.Add(more)
		g, err := rssimap.Features(context.Background(), global, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := rssimap.Features(context.Background(), cs, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVector(t, fmt.Sprintf("round %d", round), g, c)
	}
	if global.Len() != cs.Len() {
		t.Fatalf("len %d != %d", global.Len(), cs.Len())
	}
}

func TestRecordsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	recs := randRecords(rng, 300, 60, 60)
	_, cs := newPair(t, recs)
	got := cs.Records()
	if len(got) != len(recs) {
		t.Fatalf("records %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Pos != recs[i].Pos || len(got[i].RSSI) != len(recs[i].RSSI) {
			t.Fatalf("record %d mismatch", i)
		}
		for mac, v := range recs[i].RSSI {
			if got[i].RSSI[mac] != v {
				t.Fatalf("record %d mac %s = %d, want %d", i, mac, got[i].RSSI[mac], v)
			}
		}
	}
	// A fresh cluster rebuilt from Records must answer identically.
	_, rebuilt := newPair(t, got)
	u := randUpload(rng, 15, 60, 60)
	a, err := rssimap.Features(context.Background(), cs, u, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rssimap.Features(context.Background(), rebuilt, u, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameVector(t, "rebuilt", a, b)
}

func TestFeatureRadiusBoundEnforced(t *testing.T) {
	_, cs := newPair(t, nil)
	cfg := rssimap.DefaultFeatureConfig()
	cfg.R = 50 // way past MaxQueryRadius
	rng := rand.New(rand.NewSource(19))
	if _, err := rssimap.Features(context.Background(), cs, randUpload(rng, 5, 50, 50), cfg); err == nil {
		t.Fatal("feature radius beyond MaxQueryRadius must error")
	}
	if _, err := rssimap.BatchFeatures(cs, []*wifi.Upload{randUpload(rng, 5, 50, 50)}, cfg); err == nil {
		t.Fatal("batch feature radius beyond MaxQueryRadius must error")
	}
}

func TestEmptyAreaMatchesGlobalStore(t *testing.T) {
	// A query far from every record must agree with the global store's
	// zero-reference answer on both the confidence and feature paths.
	rng := rand.New(rand.NewSource(23))
	recs := randRecords(rng, 100, 30, 30)
	global, cs := newPair(t, recs)
	far := geo.Point{X: 5000, Y: 5000}
	gPhi, gNum := global.ConfidenceTol(far, "02:4e:00:00:00:01", -60, 2.5, 1)
	cPhi, cNum := confidenceTol(cs, far, "02:4e:00:00:00:01", -60, 2.5, 1)
	if gPhi != cPhi || gNum != cNum {
		t.Fatalf("far query: global (%v, %d) != cluster (%v, %d)", gPhi, gNum, cPhi, cNum)
	}
	scan := wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -60}}
	g, err := pointConfs(global, far, scan, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := pointConfs(cs, far, scan, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(c) || len(c) != 1 || c[0] != g[0] {
		t.Fatalf("far confidences: %+v != %+v", g, c)
	}
}

// TestHaloReplicationExactBoundaries pins TilesFor's closed-boundary
// semantics: how many tiles a record at a geometric edge is replicated
// into, owner first. The closed comparisons matter: a record exactly on a
// tile border or exactly margin metres from it must still be replicated,
// or references at distance exactly MaxQueryRadius (also a closed ball,
// see rssimap's Dist2 <= r2) would be missed.
func TestHaloReplicationExactBoundaries(t *testing.T) {
	cfg := shardstore.DefaultConfig()
	margin := cfg.Margin()
	cases := []struct {
		name  string
		pos   geo.Point
		owner [2]int
		tiles int
	}{
		{"tile interior", geo.Point{X: 12.5, Y: 12.5}, [2]int{0, 0}, 1},
		{"exactly on vertical border", geo.Point{X: 25, Y: 12.5}, [2]int{1, 0}, 2},
		{"exactly margin from the border", geo.Point{X: 25 + margin, Y: 12.5}, [2]int{1, 0}, 2},
		{"just past the margin", geo.Point{X: 25 + margin + 1e-9, Y: 12.5}, [2]int{1, 0}, 1},
		{"exactly on four-tile corner", geo.Point{X: 25, Y: 25}, [2]int{1, 1}, 4},
		{"margin from two edges, outside corner diagonal", geo.Point{X: 25 + margin, Y: 25 + margin}, [2]int{1, 1}, 3},
		{"origin corner", geo.Point{X: 0, Y: 0}, [2]int{0, 0}, 4},
		{"exactly on negative border", geo.Point{X: -25, Y: -12.5}, [2]int{-1, -1}, 2},
		{"exactly on negative corner", geo.Point{X: -25, Y: -25}, [2]int{-1, -1}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tiles := cfg.TilesFor(tc.pos, nil)
			if len(tiles) != tc.tiles {
				t.Fatalf("record at %v replicated into %d tiles %v, want %d", tc.pos, len(tiles), tiles, tc.tiles)
			}
			if tiles[0] != tc.owner || cfg.TileOf(tc.pos) != tc.owner {
				t.Fatalf("tiles %v for %v: want owner %v first", tiles, tc.pos, tc.owner)
			}
		})
	}
}

// TestBorderQueriesBitIdenticalToGlobal places records straddling tile
// borders and queries at the exact geometric limits the sharding
// guarantees — positions on the border itself, references at distance
// exactly MaxQueryRadius, records exactly margin metres into a neighbor
// — and demands bit-identical answers from both backends. randomised
// coverage (TestConfidenceMatchesGlobalStore) almost never lands on
// these measure-zero configurations.
func TestBorderQueriesBitIdenticalToGlobal(t *testing.T) {
	const mac = "02:4e:00:00:00:01"
	const mac2 = "02:4e:00:00:00:02"
	mkRec := func(x, y float64, rssi int) rssimap.Record {
		return rssimap.Record{Pos: geo.Point{X: x, Y: y}, RSSI: map[string]int{mac: rssi, mac2: rssi - 7}}
	}
	cfg := shardstore.DefaultConfig()
	margin := cfg.Margin()
	recs := []rssimap.Record{
		// Cluster straddling the x=25 border: references on both sides
		// whose Eq. 4 counting areas (radius R) cross it.
		mkRec(20, 10, -60), mkRec(24, 10, -58), mkRec(25, 10, -61),
		mkRec(26, 10, -59), mkRec(28, 10, -60), mkRec(30, 10, -62),
		// Exactly margin past the tile-0 edge: replicated by the closed
		// boundary, reachable only through a neighbor's counting area.
		mkRec(25+margin, 10, -60),
		// Exactly margin before the tile-1 edge: the query on the border
		// (owned by tile 1) reaches (20,10) at exactly MaxQueryRadius, whose
		// counting area reaches this record at exactly R — so tile 1 must
		// hold it, and only the closed halo comparison puts it there.
		mkRec(25-margin, 10, -60),
		// Four-tile corner cluster around (25,25).
		mkRec(24.5, 24.5, -55), mkRec(25, 25, -56), mkRec(25.5, 25.5, -57),
		mkRec(22, 22, -60), mkRec(28, 22, -60), mkRec(22, 28, -60), mkRec(28, 28, -60),
		// Negative-coordinate border x=-25 (tile -2 / tile -1 boundary).
		mkRec(-25, -10, -60), mkRec(-24, -10, -61), mkRec(-26, -10, -59),
		mkRec(-20, -10, -60), mkRec(-30, -10, -62),
	}
	global, cs := newPair(t, recs)

	queries := []struct {
		name     string
		o        geo.Point
		wantRefs bool // the MaxQueryRadius ball provably contains records
	}{
		// (25,10) is owned by tile 1 and its r=5 ball reaches (20,10) at
		// distance exactly MaxQueryRadius — the closed-halo record.
		{"exactly on border", geo.Point{X: 25, Y: 10}, true},
		{"tile 0 side of border", geo.Point{X: 24, Y: 10}, true},
		{"tile 1 side of border", geo.Point{X: 26, Y: 10}, true},
		// From tile 0, record (26,10) across the border sits at distance
		// exactly MaxQueryRadius.
		{"cross-border record at exact query radius", geo.Point{X: 21, Y: 10}, true},
		{"exactly on four-tile corner", geo.Point{X: 25, Y: 25}, true},
		{"corner from tile (0,0)", geo.Point{X: 22, Y: 22}, true},
		{"corner from tile (1,0)", geo.Point{X: 28, Y: 22}, true},
		{"corner from tile (0,1)", geo.Point{X: 22, Y: 28}, true},
		{"corner from tile (1,1)", geo.Point{X: 28, Y: 28}, true},
		{"exactly on negative border", geo.Point{X: -25, Y: -10}, true},
		{"negative border from tile -2", geo.Point{X: -29, Y: -10}, true},
		{"negative border from tile -1", geo.Point{X: -21, Y: -10}, true},
		{"empty far tile", geo.Point{X: 500, Y: 500}, false},
	}
	radii := []float64{2.5, cfg.MaxQueryRadius} // interior and the exact guarantee limit
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			sawRef := false
			for _, r := range radii {
				for tol := rssimap.Tolerance(0); tol <= 2; tol++ {
					gPhi, gNum := global.ConfidenceTol(q.o, mac, -60, r, tol)
					cPhi, cNum := confidenceTol(cs, q.o, mac, -60, r, tol)
					if gNum != cNum || math.Float64bits(gPhi) != math.Float64bits(cPhi) {
						t.Fatalf("r=%g tol=%d: global (%v, %d) != cluster (%v, %d)",
							r, tol, gPhi, gNum, cPhi, cNum)
					}
					if gNum > 0 {
						sawRef = true
					}
				}
			}
			if sawRef != q.wantRefs {
				t.Fatalf("query saw references = %v, want %v (placement is wrong)", sawRef, q.wantRefs)
			}
			scan := wifi.Scan{{MAC: mac, RSSI: -60}, {MAC: mac2, RSSI: -67}}
			fcfg := rssimap.DefaultFeatureConfig()
			g, err := pointConfs(global, q.o, scan, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := pointConfs(cs, q.o, scan, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(g) != len(c) {
				t.Fatalf("confidences dim %d != %d", len(c), len(g))
			}
			for i := range g {
				if g[i] != c[i] {
					t.Fatalf("confidence %d: %+v != %+v", i, c[i], g[i])
				}
			}
		})
	}
}

// TestBorderWalkFeaturesBitIdentical runs the full Eq. 8 feature path on
// trajectories whose every point sits exactly on tile borders — the
// positions where shardAt's floor() ownership flips — against a history
// that also straddles those borders.
func TestBorderWalkFeaturesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	recs := randRecords(rng, 800, 120, 120)
	// Salt the random history with records exactly on borders and corners.
	for i := 0; i < 40; i++ {
		recs = append(recs, rssimap.Record{
			Pos:  geo.Point{X: float64((i%4)+1) * 25, Y: float64(i) * 3},
			RSSI: map[string]int{fmt.Sprintf("02:4e:00:00:00:%02x", i%40): -40 - i},
		})
	}
	global, cs := newPair(t, recs)

	walks := []struct {
		name string
		pos  func(i int) geo.Point
	}{
		{"along border x=25", func(i int) geo.Point { return geo.Point{X: 25, Y: float64(i) * 2} }},
		{"along border y=50", func(i int) geo.Point { return geo.Point{X: float64(i) * 2, Y: 50} }},
		{"corner hopping", func(i int) geo.Point { return geo.Point{X: float64((i%3)+1) * 25, Y: float64((i/3)+1) * 25} }},
	}
	fcfg := rssimap.DefaultFeatureConfig()
	for _, wk := range walks {
		t.Run(wk.name, func(t *testing.T) {
			const n = 24
			pos := make([]geo.Point, n)
			scans := make([]wifi.Scan, n)
			for i := range pos {
				pos[i] = wk.pos(i)
				for j := 0; j < 4; j++ {
					scans[i] = append(scans[i], wifi.Observation{
						MAC:  fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(40)),
						RSSI: -40 - rng.Intn(50),
					})
				}
			}
			u := &wifi.Upload{
				Traj:  trajectory.New(pos, time.Date(2022, 7, 1, 8, 0, 0, 0, time.UTC), time.Second),
				Scans: scans,
			}
			g, err := rssimap.Features(context.Background(), global, u, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := rssimap.Features(context.Background(), cs, u, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, wk.name, g, c)
		})
	}
}

// TestConcurrentAddAndQuery exercises cross-tile ingestion racing against
// batch feature extraction; run under -race it is the memory-safety proof
// of the coordinator's halo fan-out.
func TestConcurrentAddAndQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const width, height = 150, 150
	_, cs := newPair(t, randRecords(rng, 400, width, height))
	uploads := make([]*wifi.Upload, 8)
	for i := range uploads {
		uploads[i] = randUpload(rng, 20, width, height)
	}
	batches := make([][]rssimap.Record, 8)
	for i := range batches {
		batches[i] = randRecords(rng, 100, width, height)
	}
	cfg := rssimap.DefaultFeatureConfig()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs.Add(batches[i])
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rssimap.BatchFeatures(cs, uploads, cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got, want := cs.Len(), 400+8*100; got != want {
		t.Fatalf("len after concurrent adds = %d, want %d", got, want)
	}
	st := cs.Stats()
	tiles, stored := 0, 0
	for _, ns := range st.Nodes {
		tiles += ns.Tiles
		stored += ns.Entries
	}
	if tiles == 0 || st.Records != cs.Len() || stored < st.Records {
		t.Fatalf("stats = %+v", st)
	}
}
