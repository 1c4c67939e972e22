package shardstore_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"trajforge/internal/cluster"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/wifi"
)

// TestGrownMigratedClusterBitIdenticalToRebuilt extends
// TestGrownStoreBitIdenticalToRebuilt with a migration: a cluster grown
// online — while one of its tiles live-migrates between nodes mid-growth —
// must end bit-identical to a global store handed every record up front.
func TestGrownMigratedClusterBitIdenticalToRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width, height = 100, 80
	seed := randRecords(rng, 400, width, height)

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
		uploads[i] = randUpload(rng, 8+rng.Intn(12), width, height)
	}
	batches := make([][]rssimap.Record, 4)
	for i := range batches {
		batches[i] = randRecords(rng, 60, width, height)
	}

	probe := randUpload(rng, 20, width, height)
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
				if _, err := rssimap.Features(context.Background(), grown, probe, fcfg); err != nil {
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
	rebuilt, err := rssimap.NewStore(cfg.Store, all)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != rebuilt.Len() {
		t.Fatalf("grown len %d != rebuilt %d", grown.Len(), rebuilt.Len())
	}

	for trial := 0; trial < 8; trial++ {
		q := randUpload(rng, 5+rng.Intn(20), width, height)
		g, err := rssimap.Features(context.Background(), grown, q, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rssimap.Features(context.Background(), rebuilt, q, fcfg)
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
