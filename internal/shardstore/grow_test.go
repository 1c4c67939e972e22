package shardstore_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

// TestGrownStoreBitIdenticalToRebuilt is the online-ingestion equivalence
// property: a store grown record-by-record through the incremental Add
// path (which patches the θ2 cache in place) must be bit-identical to a
// store handed every record up front, on both the global store and the
// cluster. Readers run concurrently with the growth so the race detector
// sees the ingestion and query paths overlap, exactly as they do when
// accepted streaming sessions feed the live store.
func TestGrownStoreBitIdenticalToRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width, height = 100, 80
	seed := randRecords(rng, 500, width, height)

	// The growth arrives the way streaming sessions deliver it: one
	// accepted upload at a time, interleaved with raw record batches.
	uploads := make([]*wifi.Upload, 10)
	for i := range uploads {
		uploads[i] = randUpload(rng, 8+rng.Intn(12), width, height)
	}
	batches := make([][]rssimap.Record, 4)
	for i := range batches {
		batches[i] = randRecords(rng, 60, width, height)
	}

	gGlobal, gCluster := newPair(t, seed)
	probe := randUpload(rng, 20, width, height)
	cfg := rssimap.DefaultFeatureConfig()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rssimap.Features(context.Background(), gGlobal, probe, cfg); err != nil {
					t.Error(err)
					return
				}
				if _, err := rssimap.Features(context.Background(), gCluster, probe, cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i, u := range uploads {
		gGlobal.AddUploads([]*wifi.Upload{u})
		gCluster.AddUploads([]*wifi.Upload{u})
		if i < len(batches) {
			gGlobal.Add(batches[i])
			gCluster.Add(batches[i])
		}
	}
	close(stop)
	wg.Wait()

	// The rebuilt pair sees the identical record sequence, all at once.
	all := append([]rssimap.Record{}, seed...)
	for i, u := range uploads {
		all = append(all, rssimap.UploadRecords([]*wifi.Upload{u})...)
		if i < len(batches) {
			all = append(all, batches[i]...)
		}
	}
	rGlobal, rCluster := newPair(t, all)

	if gGlobal.Len() != rGlobal.Len() {
		t.Fatalf("global len %d != rebuilt %d", gGlobal.Len(), rGlobal.Len())
	}
	if gCluster.Len() != rCluster.Len() {
		t.Fatalf("cluster len %d != rebuilt %d", gCluster.Len(), rCluster.Len())
	}

	// The θ2 cache is the state the incremental path maintains in place;
	// every cached entry must match a from-scratch computation bitwise.
	for i := 0; i < gGlobal.Len(); i++ {
		a, b := gGlobal.Theta2(int32(i)), rGlobal.Theta2(int32(i))
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("theta2[%d]: grown %v != rebuilt %v", i, a, b)
		}
	}

	// Feature vectors — the values the detector actually consumes — must
	// agree on both backends for arbitrary query trajectories.
	for trial := 0; trial < 8; trial++ {
		q := randUpload(rng, 5+rng.Intn(20), width, height)
		gg, err := rssimap.Features(context.Background(), gGlobal, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := rssimap.Features(context.Background(), rGlobal, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVector(t, fmt.Sprintf("global trial %d", trial), gg, rg)
		gc, err := rssimap.Features(context.Background(), gCluster, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := rssimap.Features(context.Background(), rCluster, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVector(t, fmt.Sprintf("cluster trial %d", trial), gc, rc)
		assertSameVector(t, fmt.Sprintf("cross-backend trial %d", trial), gg, gc)
	}
}
