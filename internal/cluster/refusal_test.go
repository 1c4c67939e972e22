package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// TestMaxEpochAssignmentRefused sends one AssignReq at epoch 2^64−1 straight
// to one node. The node refuses it with ErrEpochExhausted and journals
// nothing, so a fresh coordinator over the same nodes fences at the next
// epoch with every node synced. A node that took the assignment used to leave
// that coordinator at epoch 0 (the fence wrapped), every node unsynced and
// the cluster degraded.
func TestMaxEpochAssignmentRefused(t *testing.T) {
	tc := startCluster(t, 3, true)
	tc.store.Add(randRecords(rand.New(rand.NewSource(9)), 100, 60, 60))
	epoch := tc.store.Assignment().Epoch
	probe := Assignment{Epoch: math.MaxUint64, Members: []string{"n1", "n2", "n3"}}
	resp, err := tc.store.nodes["n1"].call(&AssignReq{Assign: probe}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*Ack); !ok || ack.Status != statusFailed || ack.Msg != ErrEpochExhausted.Error() || ack.Epoch != epoch {
		t.Fatalf("max-epoch assignment answered %+v, want the ErrEpochExhausted refusal at epoch %d", resp, epoch)
	}
	tc.store.Close()
	tc.restartNode(t, "n1") // what the node journaled, not what it holds in memory

	fresh, err := NewStore(Options{Shard: shardstore.DefaultConfig(), Nodes: tc.addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	st := fresh.Stats()
	if st.Epoch != epoch+1 || st.Degraded {
		t.Fatalf("fresh coordinator at epoch %d (degraded %v), want epoch %d and healthy", st.Epoch, st.Degraded, epoch+1)
	}
	for _, ns := range st.Nodes {
		if ns.Unsynced {
			t.Fatalf("node %s unsynced under the fresh coordinator", ns.ID)
		}
	}
}

// TestEpochExhaustedIsTypedError: every epoch bump — a coordinator fencing
// above its nodes, a migration's commit and abort, a re-replication — fails
// with ErrEpochExhausted at the last epoch instead of wrapping to 0.
func TestEpochExhaustedIsTypedError(t *testing.T) {
	tc := bootCluster(t, 3, false, Options{Replicate: true})
	tc.store.Add(randRecords(rand.New(rand.NewSource(10)), 100, 60, 60))
	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	const last = math.MaxUint64 - 1
	tc.store.mu.Lock()
	tc.store.assign.Epoch = last
	owner := tc.store.assign.Owner(tile)
	tc.store.mu.Unlock()
	to := "n1"
	if owner == to {
		to = "n2"
	}
	if err := tc.store.Migrate(tile, to); !errors.Is(err, ErrEpochExhausted) {
		t.Fatalf("migrate at the last epoch = %v, want ErrEpochExhausted", err)
	}
	if err := tc.store.abortMigration(tile); !errors.Is(err, ErrEpochExhausted) {
		t.Fatalf("abort at the last epoch = %v, want ErrEpochExhausted", err)
	}
	if err := tc.store.Rereplicate(owner); !errors.Is(err, ErrEpochExhausted) {
		t.Fatalf("rereplicate at the last epoch = %v, want ErrEpochExhausted", err)
	}
	if st := tc.store.Stats(); st.Epoch != last || st.MigrationInFlight {
		t.Fatalf("after the refusals: epoch %d, migration in flight %v; want %d and none", st.Epoch, st.MigrationInFlight, uint64(last))
	}

	n := tc.nodes["n2"]
	n.mu.Lock()
	n.epoch = last
	n.mu.Unlock()
	if s, err := NewStore(Options{Shard: shardstore.DefaultConfig(), Nodes: tc.addrs}); !errors.Is(err, ErrEpochExhausted) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("coordinator over a node at the last epoch: %v, want ErrEpochExhausted", err)
	}
}

// TestConfidenceRadiusRefused: a feature radius beyond MaxQueryRadius, whose
// halo the tiling does not replicate, is refused by the coordinator before
// any node is asked, and by a node that receives it in a raw ConfReq; so is a
// ConfReq with a non-positive top-k.
func TestConfidenceRadiusRefused(t *testing.T) {
	tc := startCluster(t, 1, false)
	recs := randRecords(rand.New(rand.NewSource(11)), 100, 40, 40)
	tc.store.Add(recs)
	tile, ok := tc.store.BusiestTile()
	if !ok {
		t.Fatal("no busiest tile")
	}
	wide := rssimap.DefaultFeatureConfig()
	wide.R = shardstore.DefaultConfig().MaxQueryRadius + 1
	scan := wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -50}}

	before := tc.store.Stats().Forwarded
	if _, err := tc.store.Confidences(context.Background(), make([]rssimap.Answer, 1), []trajectory.Point{{Pos: recs[0].Pos}}, []wifi.Scan{scan}, wide, nil); err == nil {
		t.Fatal("coordinator answered a radius beyond MaxQueryRadius")
	}
	if after := tc.store.Stats().Forwarded; after != before {
		t.Fatalf("refused query forwarded %d requests", after-before)
	}

	zeroK := rssimap.DefaultFeatureConfig()
	zeroK.TopK = 0
	for _, cfg := range []rssimap.FeatureConfig{wide, zeroK} {
		resp, err := tc.store.nodes["n1"].call(&ConfReq{
			Epoch:  tc.store.Assignment().Epoch,
			Cfg:    cfg,
			Points: []ConfPoint{{Tile: tile, Pos: recs[0].Pos, Scan: scan}},
		}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		cr, ok := resp.(*ConfResp)
		if !ok || cr.Status != statusFailed || len(cr.Items) != 0 || !strings.Contains(cr.Msg, "refuses") {
			t.Fatalf("node answered R %g, top-k %d with %+v; want a refusal", cfg.R, cfg.TopK, resp)
		}
	}
}
