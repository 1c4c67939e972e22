package cluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/wifi"
)

// queryFixture is a replicated three-node loopback cluster and the global
// store holding the same records: the reference every answer must match.
type queryFixture struct {
	tc     *testCluster
	ref    *rssimap.Store
	probes []*wifi.Upload
}

func newQueryFixture(t *testing.T, seed int64) *queryFixture {
	t.Helper()
	const width, height = 160, 160
	rng := rand.New(rand.NewSource(seed))
	recs := randRecords(rng, 1500, width, height)
	tc := startReplicatedCluster(t, 3, "")
	tc.store.Add(recs)
	ref, err := rssimap.NewStore(shardstore.DefaultConfig().Store, recs)
	if err != nil {
		t.Fatal(err)
	}
	f := &queryFixture{tc: tc, ref: ref}
	for i := 0; i < 6; i++ {
		f.probes = append(f.probes, randUpload(rng, 40, width, height))
	}
	return f
}

// check requires u's cluster features, computed under ctx, to equal the
// global store's bit for bit.
func (f *queryFixture) check(t *testing.T, u *wifi.Upload, label string) {
	t.Helper()
	cfg := rssimap.DefaultFeatureConfig()
	want, err := rssimap.Features(context.Background(), f.ref, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.tc.store.FeaturesContext(context.Background(), u, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameVector(t, want, got, label)
}

// owners returns the primaries of the non-empty tiles u's points fall in.
func owners(s *Store, u *wifi.Upload) map[string]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]bool)
	for _, p := range u.Traj.Points {
		if tile := s.cfg.TileOf(p.Pos); len(s.tileIndex[tile]) > 0 {
			out[s.assign.Owner(tile)] = true
		}
	}
	return out
}

// TestFeaturesOneRPCPerNode pins the query path's unit of work: one
// Features call sends at most one confidence RPC to each node owning one
// of the upload's non-empty tiles, however many points land there, and the
// vector equals the global store's bit for bit.
func TestFeaturesOneRPCPerNode(t *testing.T) {
	f := newQueryFixture(t, 71)
	multi := false
	for i, u := range f.probes {
		own := owners(f.tc.store, u)
		multi = multi || len(own) > 1
		before := f.tc.store.Stats().Forwarded
		f.check(t, u, "probe")
		if sent := f.tc.store.Stats().Forwarded - before; sent > uint64(len(own)) || sent == 0 {
			t.Fatalf("probe %d: %d confidence RPCs for %d points over %d owning nodes", i, sent, len(u.Scans), len(own))
		}
	}
	if !multi {
		t.Fatal("no probe spans tiles of more than one node")
	}
}

// hookOnce installs fn as the store's after-routing hook for its first
// call only.
func hookOnce(s *Store, fn func()) {
	var once sync.Once
	s.routed = func() { once.Do(fn) }
}

// TestFeaturesNodeLostAfterRouting closes a node after the query's points
// are grouped by node and before the requests go out: the points it held
// as primary fail over to their followers, and the answer stays
// bit-identical.
func TestFeaturesNodeLostAfterRouting(t *testing.T) {
	f := newQueryFixture(t, 72)
	u := f.probes[0]
	own := owners(f.tc.store, u)
	var victim string
	for id := range own {
		victim = id
	}
	hookOnce(f.tc.store, func() {
		if err := f.tc.nodes[victim].Close(); err != nil {
			t.Error(err)
		}
	})
	before := f.tc.store.Stats().ReplicaReads
	f.check(t, u, "after node loss")
	if f.tc.store.Stats().ReplicaReads == before {
		t.Fatal("no point was served by a follower after its primary closed")
	}
	if !f.tc.store.nodes[victim].isUnsynced() {
		t.Fatal("the closed node is not marked unsynced")
	}
}

// TestFeaturesEpochBumpAfterRouting commits an epoch bump, the way a
// migration commit or abort does, between routing and sending: every node
// refuses the stale epoch, the points are routed again, and the answer
// stays bit-identical.
func TestFeaturesEpochBumpAfterRouting(t *testing.T) {
	f := newQueryFixture(t, 73)
	s := f.tc.store
	routed := 0
	var once sync.Once
	s.routed = func() {
		routed++
		once.Do(func() {
			s.mu.Lock()
			next := s.assign.Clone()
			next.Epoch++
			s.assign = next
			s.journalAssignLocked(next)
			s.mu.Unlock()
			s.pushAssignment()
		})
	}
	epoch := s.Assignment().Epoch
	f.check(t, f.probes[0], "after epoch bump")
	if s.Assignment().Epoch != epoch+1 {
		t.Fatalf("epoch %d, want %d", s.Assignment().Epoch, epoch+1)
	}
	if routed < 2 {
		t.Fatalf("points routed %d time(s); the stale-epoch refusal must route them again", routed)
	}
}

// TestFeaturesExpiredContext refuses a query whose context is already done
// before any node sees it, counting one expiry for the call, not one per
// point.
func TestFeaturesExpiredContext(t *testing.T) {
	f := newQueryFixture(t, 74)
	s := f.tc.store
	handled := func() (n uint64) {
		for _, node := range f.tc.nodes {
			node.statMu.Lock()
			n += node.confs + node.expired
			node.statMu.Unlock()
		}
		return n
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	past, cancelPast := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelPast()
	for _, ctx := range []context.Context{cancelled, past} {
		st, nodeBefore := s.Stats(), handled()
		_, err := s.FeaturesContext(ctx, f.probes[0], rssimap.DefaultFeatureConfig())
		if !errors.Is(err, ErrExpired) {
			t.Fatalf("got %v, want ErrExpired", err)
		}
		after := s.Stats()
		if d := after.ExpiredRejects - st.ExpiredRejects; d != 1 {
			t.Fatalf("one expired call counted %d expiries", d)
		}
		if after.Forwarded != st.Forwarded || handled() != nodeBefore {
			t.Fatal("an expired query reached a node")
		}
	}
}

// TestConcurrentIngestAndQueryLeavesNoGoroutines runs uploads and feature
// queries against the replicated cluster at once (the fan-outs of both
// paths overlap; run it under -race), then tears everything down and
// requires the goroutine count back at its starting value within 3 s —
// the teardown check the benchmark makes after every pass.
func TestConcurrentIngestAndQueryLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := newQueryFixture(t, 75)
	rng := rand.New(rand.NewSource(76))
	var ingest [][]*wifi.Upload
	for i := 0; i < 8; i++ {
		ingest = append(ingest, []*wifi.Upload{randUpload(rng, 20, 160, 160), randUpload(rng, 20, 160, 160)})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, batch := range ingest {
			f.tc.store.AddUploads(batch)
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			for _, u := range f.probes {
				if _, err := f.tc.store.FeaturesContext(context.Background(), u, rssimap.DefaultFeatureConfig()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	f.tc.close()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 3 s after teardown, %d before the cluster started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
