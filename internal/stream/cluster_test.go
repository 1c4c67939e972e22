package stream

import (
	"errors"
	"testing"

	"trajforge/internal/cluster"
	"trajforge/internal/detect"
	"trajforge/internal/resilience"
	"trajforge/internal/shardstore"
	"trajforge/internal/trajectory"
)

// clusterDetector is newDetector's model and history on a 3-node loopback
// cluster (no replication, node RPCs tried once).
func clusterDetector(t *testing.T) (*detect.WiFiDetector, *cluster.Loopback, *cluster.Store) {
	t.Helper()
	det := newDetector(t)
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	cs, err := cluster.NewStore(cluster.Options{
		Shard: shardstore.DefaultConfig(), Nodes: lb.Addrs,
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cs.Add(det.Store.Records())
	return &detect.WiFiDetector{Store: cs, Model: det.Model, Features: det.Features}, lb, cs
}

// TestClusterChunkOneRPCWave: an appended chunk is one confidence call, so it
// costs at most one RPC per node holding its points' tiles, not one per point.
// A chunk whose call fails caches nothing and leaves Scored where it was.
func TestClusterChunkOneRPCWave(t *testing.T) {
	det, lb, cs := clusterDetector(t)
	m := newManager(t, Config{Detector: det, DisableEarlyExit: true})
	u := walkUpload(t, 170, 16)
	id, err := m.Open("", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	assign, geom := cs.Assignment(), cs.Config()
	holders := map[string]bool{}
	for _, p := range u.Traj.Points[:8] {
		holders[assign.Owner(geom.TileOf(p.Pos))] = true
	}
	before := cs.Stats().Forwarded
	ack, _, err := m.AppendChunk(id, 0, u.Traj.Points[:8], u.Scans[:8])
	if err != nil {
		t.Fatal(err)
	}
	if sent := cs.Stats().Forwarded - before; sent == 0 || sent > uint64(len(holders)) {
		t.Fatalf("an 8-point chunk sent %d confidence RPCs; want 1 to %d (the nodes holding its tiles)", sent, len(holders))
	}
	if ack.Scored != 8 || m.Stats().PointsScored != 8 {
		t.Fatalf("after the first chunk: ack %+v, stats %+v", ack, m.Stats())
	}

	lb.Close()
	ack, _, err = m.AppendChunk(id, 1, u.Traj.Points[8:], u.Scans[8:])
	if !errors.Is(err, ErrStore) {
		t.Fatalf("append against dead nodes = %v, want ErrStore", err)
	}
	if ack.Scored != 8 || m.Stats().PointsScored != 8 {
		t.Fatalf("failed chunk scored: ack %+v, stats %+v", ack, m.Stats())
	}
}

// TestClusterRadiusRefusedOnAppend: a session whose detector asks for a
// radius beyond the tiling's MaxQueryRadius gets an error on append — the
// streaming path checks the radius the batch path does — and caches nothing.
func TestClusterRadiusRefusedOnAppend(t *testing.T) {
	det, _, cs := clusterDetector(t)
	det.Features.R = cs.Config().MaxQueryRadius + 1
	m := newManager(t, Config{Detector: det, DisableEarlyExit: true})
	u := walkUpload(t, 171, 8)
	id, err := m.Open("", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	before := cs.Stats().Forwarded
	ack, _, err := m.AppendChunk(id, 0, u.Traj.Points, u.Scans)
	if !errors.Is(err, ErrStore) {
		t.Fatalf("append with R beyond MaxQueryRadius = %v, want ErrStore", err)
	}
	if ack.Scored != 0 || m.Stats().PointsScored != 0 || cs.Stats().Forwarded != before {
		t.Fatalf("refused append scored: ack %+v, stats %+v, %d RPCs", ack, m.Stats(), cs.Stats().Forwarded-before)
	}
}
