package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trajforge/internal/detect"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
	"trajforge/internal/wifi"
)

// The directory testdata/lineage_pr13 was written by the commit before the
// codecs and the WAL lineage moved onto internal/binenc and wal.Lineage
// (PR 13's tree, running driveLineageFixture below): a snapshot of the
// bootstrap store, then WAL frames for batch verdicts of both kinds, one
// streamed session accepted at close and one still in flight, abandoned
// without Close as a crash leaves it. features.hex holds the Eq. 8 feature
// bits that tree's live store answered for lineageProbe.

const lineageFixtureDir = "testdata/lineage_pr13"

func lineageProbe(t *testing.T) *wifi.Upload { return uploadFor(t, 999, 30) }

func lineageConfig(store rssimap.Backend, det *detect.WiFiDetector, p *Persistence, motion *fixedMotion) Config {
	return Config{
		Motion:  motion,
		WiFi:    &detect.WiFiDetector{Store: store, Model: det.Model, Features: det.Features},
		Stream:  &stream.Config{DisableEarlyExit: true},
		Persist: p, IngestAccepted: true,
	}
}

// lineageDetector trains the fixture's detector against a throwaway copy of
// the bootstrap store, so the model does not depend on what was ingested.
func lineageDetector(t *testing.T) (*detect.WiFiDetector, []rssimap.Record) {
	t.Helper()
	bootstrap := persistRecords(rand.New(rand.NewSource(141)), 120)
	ref, err := rssimap.NewStore(rssimap.DefaultConfig(), bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	return trainTestDetector(t, ref), bootstrap
}

// driveLineageFixture runs the fixture workload against a fresh data
// directory and abandons it as a crash would. It returns the live store's
// features for the probe.
func driveLineageFixture(t *testing.T, dir string) []float64 {
	t.Helper()
	det, bootstrap := lineageDetector(t)
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPersistence(dir, PersistOptions{SyncInterval: -1, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	motion := &fixedMotion{prob: 0.9}
	_, _, client := newTestService(t, lineageConfig(store, det, p, motion))
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		motion.set(0.9)
		if i == 2 {
			motion.set(0.1)
		}
		u := uploadFor(t, int64(1400+i), 24)
		u.Contributor = fmt.Sprintf("device-%02d", i)
		if _, err := client.Upload(u); err != nil {
			t.Fatal(err)
		}
	}
	motion.set(0.9)
	streamed := uploadFor(t, 1410, 18)
	streamed.Traj.ID = "streamed" // an empty id would have the server mint a random one
	streamUpload(t, client, streamed, []int{6, 6, 6})
	inFlight := uploadFor(t, 1411, 18)
	id, err := client.OpenSession("in-flight", "walking")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AppendSession(id, 0, inFlight, 0, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := client.AppendSession(id, 1, inFlight, 6, 12); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	feat, err := rssimap.Features(context.Background(), store, lineageProbe(t), rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	return feat
}

// recoverLineageFixture opens dir, rebuilds the provider from it the way
// cmd/lspserver does, and returns the recovered state and the rebuilt
// store's features for the probe.
func recoverLineageFixture(t *testing.T, dir string) (*RecoveredState, []float64) {
	t.Helper()
	det, _ := lineageDetector(t)
	p, err := OpenPersistence(dir, PersistOptions{SyncInterval: -1, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	state := p.Recovered()
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), state.Records)
	if err != nil {
		t.Fatal(err)
	}
	svc, _, _ := newTestService(t, lineageConfig(store, det, p, &fixedMotion{prob: 0.9}))
	svc.Restore(state)
	feat, err := rssimap.Features(context.Background(), store, lineageProbe(t), rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	return state, feat
}

func featureHex(feat []float64) string {
	var b strings.Builder
	for _, f := range feat {
		fmt.Fprintf(&b, "%016x\n", math.Float64bits(f))
	}
	return b.String()
}

func copyFixtureDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{walFileName, snapFileName} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestParentWrittenLineageRecovers opens the data directory the parent
// commit wrote and requires the rebuilt store to answer the probe with the
// exact feature bits the parent's live store gave.
func TestParentWrittenLineageRecovers(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(lineageFixtureDir, "features.hex"))
	if err != nil {
		t.Fatal(err)
	}
	state, feat := recoverLineageFixture(t, copyFixtureDir(t, lineageFixtureDir))
	if state.Accepted != 5 || state.Rejected != 1 || len(state.Uploads) != 5 || len(state.Records) != 120 {
		t.Fatalf("recovered %d accepted, %d rejected, %d uploads, %d records",
			state.Accepted, state.Rejected, len(state.Uploads), len(state.Records))
	}
	if len(state.Sessions) != 1 || state.Sessions[0].ID != "in-flight" ||
		state.Sessions[0].Chunks != 2 || len(state.Sessions[0].Points) != 12 {
		t.Fatalf("recovered sessions = %+v", state.Sessions)
	}
	if state.Uploads[1].Contributor != "device-01" {
		t.Fatalf("recovered contributor %q", state.Uploads[1].Contributor)
	}
	if got := featureHex(feat); got != string(want) {
		t.Fatalf("features after recovering the parent's directory:\n%swant:\n%s", got, want)
	}
}

// TestLineageWritesParentBytes drives the same workload on this tree: the
// WAL it leaves must equal the parent's file byte for byte (the snapshot is
// gob over maps, so only its recovered content is compared).
func TestLineageWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	live := driveLineageFixture(t, dir)
	want, err := os.ReadFile(filepath.Join(lineageFixtureDir, "features.hex"))
	if err != nil {
		t.Fatal(err)
	}
	if got := featureHex(live); got != string(want) {
		t.Fatalf("live features:\n%swant:\n%s", got, want)
	}
	gotWAL, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	wantWAL, err := os.ReadFile(filepath.Join(lineageFixtureDir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWAL, wantWAL) {
		t.Fatalf("WAL of %d bytes differs from the parent's %d bytes", len(gotWAL), len(wantWAL))
	}
	_, feat := recoverLineageFixture(t, dir)
	if got := featureHex(feat); got != string(want) {
		t.Fatalf("features after recovery:\n%swant:\n%s", got, want)
	}
}
