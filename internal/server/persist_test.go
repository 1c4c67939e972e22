package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/trajectory"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

func TestUploadCodecRoundtrip(t *testing.T) {
	u := uploadFor(t, 61, 20)
	u.Traj.ID = "user-42"
	u.Traj.Mode = trajectory.ModeCycling
	// Vary the scans: a missing scan, a multi-AP scan, odd float positions.
	u.Scans[3] = wifi.Scan{}
	u.Scans[4] = wifi.Scan{
		{MAC: "02:4e:00:00:00:07", RSSI: -91},
		{MAC: "02:4e:00:00:00:08", RSSI: -44},
	}
	u.Traj.Points[5].Pos.X = math.Nextafter(12.5, 13)
	u.Traj.Points[5].Pos.Y = -0.0

	u.Contributor = "device-0042"

	const pFake = 0.1875 // exactly representable: bit-equality must hold
	buf, err := appendUpload(nil, u, pFake)
	if err != nil {
		t.Fatal(err)
	}
	got, gotScore, err := decodeUpload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Contributor != u.Contributor {
		t.Fatalf("decoded contributor = %q, want %q", got.Contributor, u.Contributor)
	}
	if math.Float64bits(gotScore) != math.Float64bits(pFake) {
		t.Fatalf("decoded pFake = %v, want %v", gotScore, pFake)
	}
	if got.Traj.ID != u.Traj.ID || got.Traj.Mode != u.Traj.Mode || got.Traj.Len() != u.Traj.Len() {
		t.Fatalf("decoded header = %q/%v/%d", got.Traj.ID, got.Traj.Mode, got.Traj.Len())
	}
	for i, p := range u.Traj.Points {
		q := got.Traj.Points[i]
		if math.Float64bits(p.Pos.X) != math.Float64bits(q.Pos.X) ||
			math.Float64bits(p.Pos.Y) != math.Float64bits(q.Pos.Y) {
			t.Fatalf("point %d: %v != %v (bits differ)", i, p.Pos, q.Pos)
		}
		if !p.Time.Equal(q.Time) {
			t.Fatalf("point %d time %v != %v", i, p.Time, q.Time)
		}
	}
	for i, scan := range u.Scans {
		if len(got.Scans[i]) != len(scan) {
			t.Fatalf("scan %d len %d != %d", i, len(got.Scans[i]), len(scan))
		}
		for j, obs := range scan {
			if got.Scans[i][j] != obs {
				t.Fatalf("scan %d obs %d = %+v, want %+v", i, j, got.Scans[i][j], obs)
			}
		}
	}
	// Truncations at every prefix length must error, never panic.
	for n := range buf {
		if _, _, err := decodeUpload(buf[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", n)
		}
	}
}

// persistRecords builds a crowdsourced history around the test fixture
// route (0,0)->(300,0), dense enough for non-trivial features.
func persistRecords(rng *rand.Rand, n int) []rssimap.Record {
	recs := make([]rssimap.Record, n)
	for i := range recs {
		m := map[string]int{"02:4e:00:00:00:01": -55 - rng.Intn(20)}
		if rng.Intn(2) == 0 {
			m["02:4e:00:00:00:02"] = -60 - rng.Intn(20)
		}
		recs[i] = rssimap.Record{
			Pos:  geo.Point{X: rng.Float64() * 300, Y: rng.NormFloat64() * 3},
			RSSI: m,
		}
	}
	return recs
}

// trainTestDetector fits a tiny but real WiFi detector against the store.
func trainTestDetector(t *testing.T, store rssimap.Backend) *detect.WiFiDetector {
	t.Helper()
	real := make([]*wifi.Upload, 4)
	fake := make([]*wifi.Upload, 4)
	for i := range real {
		real[i] = uploadFor(t, int64(700+i), 20)
		f := uploadFor(t, int64(710+i), 20)
		for j := range f.Scans {
			f.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
		}
		fake[i] = f
	}
	det, err := detect.TrainWiFiDetector(store, real, fake,
		rssimap.DefaultFeatureConfig(), xgb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestCrashRecoveryBitIdentical is the subsystem's headline test: accept a
// batch of uploads, crash without a final snapshot, and rebuild the
// provider from the initial snapshot plus the WAL. The rebuilt store must
// answer feature queries bit-identically, the counters and history must
// match, and verdicts must be unchanged.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(71))
	bootstrap := persistRecords(rng, 400)

	store1, err := rssimap.NewStore(rssimap.DefaultConfig(), bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	det1 := trainTestDetector(t, store1)
	stub1 := &fixedMotion{prob: 0.9}
	rc1, err := detect.NewReplayChecker(1.2)
	if err != nil {
		t.Fatal(err)
	}

	p1, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Recovered().Empty() {
		t.Fatalf("fresh dir recovered %+v", p1.Recovered())
	}
	svc1, _, client1 := newTestService(t, Config{
		Motion: stub1, Replay: rc1, WiFi: det1,
		IngestAccepted: true, Persist: p1,
	})
	// Fresh directory: the bootstrap store exists only in memory until the
	// initial snapshot commits.
	if err := p1.Compact(); err != nil {
		t.Fatal(err)
	}

	// Accept a batch and reject a couple (motion stub flips), so both frame
	// types land in the WAL after the snapshot.
	var accepted []*wifi.Upload
	for i := 0; i < 8; i++ {
		stub1.set(0.9)
		if i%4 == 3 {
			stub1.set(0.1)
		}
		u := realisticUpload(t, int64(800+i))
		v, err := client1.Upload(u)
		if err != nil {
			t.Fatal(err)
		}
		if v.Accepted {
			accepted = append(accepted, u)
		}
	}
	wantAcc, wantRej := len(accepted), 8-len(accepted)
	if wantAcc == 0 || wantRej < 2 {
		t.Fatalf("need both verdicts in the WAL, got %d/%d", wantAcc, wantRej)
	}
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}
	st1 := svc1.Stats()
	if st1.Accepted != wantAcc || st1.Rejected != wantRej {
		t.Fatalf("run 1 stats = %+v", st1)
	}
	if st1.Persistence == nil || st1.Persistence.WALFrames != 8 {
		t.Fatalf("run 1 persistence stats = %+v", st1.Persistence)
	}
	probe := uploadFor(t, 999, 30)
	want, err := rssimap.Features(context.Background(), store1, probe, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict, err := svc1.Verify(context.Background(), uploadFor(t, 888, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Crash: abandon svc1/p1 without Close — no final snapshot is written.

	// Recovery: snapshot holds the bootstrap store, the WAL holds all 8
	// verdicts; the uploads must re-ingest through the live code path.
	p2, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := p2.Recovered()
	if state.Accepted != wantAcc || state.Rejected != wantRej {
		t.Fatalf("recovered counters = %d/%d", state.Accepted, state.Rejected)
	}
	if len(state.Records) != len(bootstrap) || len(state.Uploads) != wantAcc {
		t.Fatalf("recovered %d records, %d uploads", len(state.Records), len(state.Uploads))
	}
	store2, err := rssimap.NewStore(rssimap.DefaultConfig(), state.Records)
	if err != nil {
		t.Fatal(err)
	}
	det2 := &detect.WiFiDetector{Store: store2, Model: det1.Model, Features: det1.Features}
	rc2, err := detect.NewReplayChecker(1.2)
	if err != nil {
		t.Fatal(err)
	}
	svc2, _, _ := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, Replay: rc2, WiFi: det2,
		IngestAccepted: true, Persist: p2,
	})
	svc2.Restore(state)

	got, err := rssimap.Features(context.Background(), store2, probe, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("feature dim %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("feature %d: %v != %v (bits differ)", i, want[i], got[i])
		}
	}
	st2 := svc2.Stats()
	if st2.Accepted != wantAcc || st2.Rejected != wantRej || st2.History != st1.History {
		t.Fatalf("restored stats = %+v, want %+v", st2, st1)
	}
	gotVerdict, err := svc2.Verify(context.Background(), uploadFor(t, 888, 30))
	if err != nil {
		t.Fatal(err)
	}
	if gotVerdict.Accepted != wantVerdict.Accepted || gotVerdict.Reason != wantVerdict.Reason {
		t.Fatalf("verdict after recovery = %+v, want %+v", gotVerdict, wantVerdict)
	}
	for stage, status := range wantVerdict.Checks {
		if gotVerdict.Checks[stage] != status {
			t.Fatalf("stage %s = %s after recovery, want %s", stage, gotVerdict.Checks[stage], status)
		}
	}
	if (gotVerdict.WiFiProbFake == nil) != (wantVerdict.WiFiProbFake == nil) {
		t.Fatalf("verdict after recovery = %+v, want %+v", gotVerdict, wantVerdict)
	}
	if gotVerdict.WiFiProbFake != nil && *gotVerdict.WiFiProbFake != *wantVerdict.WiFiProbFake {
		t.Fatalf("wifi prob %v != %v", *gotVerdict.WiFiProbFake, *wantVerdict.WiFiProbFake)
	}
	// The restored replay history must still catch a near-duplicate of an
	// upload accepted before the crash.
	replayed := accepted[0].Traj.Clone()
	prng := rand.New(rand.NewSource(73))
	for i := range replayed.Points {
		replayed.Points[i].Pos.X += prng.NormFloat64() * 0.3
	}
	v, err := svc2.Verify(context.Background(), &wifi.Upload{Traj: replayed, Scans: accepted[0].Scans})
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["replay"] != "fail" {
		t.Fatalf("post-recovery replay verdict = %+v", v)
	}

	// Graceful shutdown writes the final snapshot and resets the log; a
	// third open must recover everything from the snapshot alone.
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s3 := p3.Recovered()
	if s3.Accepted != wantAcc || s3.Rejected != wantRej || len(s3.Uploads) != 0 {
		t.Fatalf("post-shutdown recovery = %d/%d with %d uploads", s3.Accepted, s3.Rejected, len(s3.Uploads))
	}
	store3, err := rssimap.NewStore(rssimap.DefaultConfig(), s3.Records)
	if err != nil {
		t.Fatal(err)
	}
	final, err := rssimap.Features(context.Background(), store3, probe, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// store2 ingested the WAL uploads after the feature probe above, so
	// compare against its current answer.
	want2, err := rssimap.Features(context.Background(), store2, probe, rssimap.DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want2 {
		if math.Float64bits(want2[i]) != math.Float64bits(final[i]) {
			t.Fatalf("snapshot-only feature %d: %v != %v", i, want2[i], final[i])
		}
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistence(dir, PersistOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, _, client := newTestService(t, Config{Persist: p})
	if _, err := client.Upload(realisticUpload(t, 91)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if st.Persistence != nil && st.Persistence.Generation >= 2 && st.Persistence.WALFrames == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction did not run: %+v", st.Persistence)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted state must recover from the snapshot.
	p2, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p2.Recovered(); st.Accepted != 1 || len(st.Uploads) != 0 {
		t.Fatalf("recovered = %+v", st)
	}
}

func TestSnapshotSupersedesStaleLog(t *testing.T) {
	// Simulate a crash between snapshot rename and log reset: the snapshot
	// carries a newer generation than the log, whose frames it already
	// contains. Recovery must take the snapshot and discard the frames.
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, walFileName), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := appendUpload(nil, uploadFor(t, 95, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(frameAccepted, buf); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snapshotData{Accepted: 5}); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(filepath.Join(dir, snapFileName), 2, payload.Bytes()); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Recovered()
	if st.Accepted != 5 || len(st.Uploads) != 0 {
		t.Fatalf("recovered = %+v, want snapshot state only", st)
	}
	if gen := p.log.Generation(); gen != 2 {
		t.Fatalf("log generation = %d, want 2", gen)
	}
}

func TestMissingSnapshotForCompactedLogRefused(t *testing.T) {
	// A log past generation 1 with no (or an older) snapshot means the
	// snapshot file was lost; recovery must refuse rather than guess.
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, walFileName), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Reset(3); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPersistence(dir, PersistOptions{}); err == nil {
		t.Fatal("compacted log without snapshot must refuse to open")
	} else if !strings.Contains(err.Error(), "generation") {
		t.Fatalf("unexpected error: %v", err)
	}
}
