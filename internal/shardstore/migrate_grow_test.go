// Grown-vs-migrated-vs-rebuilt: the distributed extension of
// TestGrownStoreBitIdenticalToRebuilt. A cluster grown online — while one
// of its tiles live-migrates between nodes mid-growth — must end bit-
// identical to a single-process sharded store handed every record up front.
// External test package: internal/cluster imports shardstore, so the
// distributed half of the equivalence property has to link from outside.
package shardstore_test

import (
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

func clusterRandRecords(rng *rand.Rand, n int, width, height float64) []rssimap.Record {
	recs := make([]rssimap.Record, n)
	for i := range recs {
		m := make(map[string]int)
		for j := 0; j < 3+rng.Intn(5); j++ {
			m[fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(40))] = -40 - rng.Intn(50)
		}
		recs[i] = rssimap.Record{
			Pos:  geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height},
			RSSI: m,
		}
	}
	return recs
}

func clusterRandUpload(rng *rand.Rand, n int, width, height float64) *wifi.Upload {
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

func TestGrownMigratedClusterBitIdenticalToRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width, height = 100, 80
	seed := clusterRandRecords(rng, 400, width, height)

	// Three shard nodes over loopback, one coordinator.
	cfg := shardstore.DefaultConfig()
	lb, err := cluster.StartLoopback(cfg, []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	grown, err := cluster.NewStore(cluster.Options{Shard: cfg, Nodes: lb.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grown.Close() })
	grown.Add(seed)

	uploads := make([]*wifi.Upload, 10)
	for i := range uploads {
		uploads[i] = clusterRandUpload(rng, 8+rng.Intn(12), width, height)
	}
	batches := make([][]rssimap.Record, 4)
	for i := range batches {
		batches[i] = clusterRandRecords(rng, 60, width, height)
	}

	probe := clusterRandUpload(rng, 20, width, height)
	fcfg := rssimap.DefaultFeatureConfig()

	// Concurrent readers keep forwarding queries while records arrive and
	// the tile moves between nodes, so the race detector sees ingest,
	// query, and migration paths overlap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := grown.Features(probe, fcfg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i, u := range uploads {
		grown.AddUploads([]*wifi.Upload{u})
		if i < len(batches) {
			grown.Add(batches[i])
		}
		if i == len(uploads)/2 {
			// Mid-growth, live-migrate the busiest tile to another node.
			tile, ok := grown.BusiestTile()
			if !ok {
				t.Fatal("no busiest tile")
			}
			from := grown.Assignment().Owner(tile)
			var to string
			for id := range lb.Nodes {
				if id != from {
					to = id
					break
				}
			}
			if err := grown.Migrate(tile, to); err != nil {
				t.Fatalf("live migration: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The rebuilt store sees the identical record sequence, all at once,
	// in one process, with no migration ever having happened.
	all := append([]rssimap.Record{}, seed...)
	for i, u := range uploads {
		all = append(all, rssimap.UploadRecords([]*wifi.Upload{u})...)
		if i < len(batches) {
			all = append(all, batches[i]...)
		}
	}
	rebuilt, err := shardstore.New(cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != rebuilt.Len() {
		t.Fatalf("grown len %d != rebuilt %d", grown.Len(), rebuilt.Len())
	}

	for trial := 0; trial < 8; trial++ {
		q := clusterRandUpload(rng, 5+rng.Intn(20), width, height)
		g, err := grown.Features(q, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rebuilt.Features(q, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != len(r) {
			t.Fatalf("trial %d: %d vs %d features", trial, len(g), len(r))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(r[i]) {
				t.Fatalf("trial %d feature %d: grown+migrated %v != rebuilt %v", trial, i, g[i], r[i])
			}
		}
	}
}
