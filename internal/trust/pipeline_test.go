package trust

import (
	"context"
	"math"
	"testing"
	"time"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// uploadAt builds a short upload whose fixes walk east from (x, y) with
// one constant-AP scan per fix.
func uploadAt(contrib string, x, y float64, rssi int, at time.Time) *wifi.Upload {
	const n = 4
	pts := make([]trajectory.Point, n)
	scans := make([]wifi.Scan, n)
	for i := 0; i < n; i++ {
		pts[i] = trajectory.Point{Pos: geo.Point{X: x + float64(i), Y: y}, Time: at.Add(time.Duration(i) * time.Second)}
		scans[i] = wifi.Scan{{MAC: "ap-1", RSSI: rssi}}
	}
	return &wifi.Upload{
		Traj:        &trajectory.T{Points: pts, Mode: trajectory.ModeWalking},
		Scans:       scans,
		Contributor: contrib,
	}
}

func newBackend(t *testing.T) *rssimap.Store {
	t.Helper()
	s, err := rssimap.NewStore(rssimap.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPipelineQuarantinesUntilCorroborated(t *testing.T) {
	backend := newBackend(t)
	cfg := DefaultConfig()
	cfg.Quarantine.K = 3
	p := NewPipeline(cfg, backend)

	// Two distinct low-trust contributors: everything stays staged, and
	// nothing is served.
	res := p.IngestUpload(uploadAt("a", 0, 0, -60, tRef), 0.1, tRef)
	if res.Promoted != 0 || res.Quarantined != 4 {
		t.Fatalf("first upload: %+v, want 4 quarantined, 0 promoted", res)
	}
	p.IngestUpload(uploadAt("b", 0, 0.5, -61, tRef), 0.1, tRef)
	if backend.Len() != 0 {
		t.Fatalf("serving store holds %d records before corroboration", backend.Len())
	}
	// The third contributor corroborates the eight waiting points; its own
	// four stage in turn (promoting is not a fast lane for the promoter).
	res = p.IngestUpload(uploadAt("c", 0, 1, -62, tRef), 0.1, tRef)
	if res.Promoted != 8 || res.Quarantined != 4 {
		t.Fatalf("third upload: %+v, want 8 promoted and its own 4 staged", res)
	}
	if backend.Len() != 8 {
		t.Fatalf("serving store holds %d records, want 8", backend.Len())
	}
}

func TestPipelineSingleContributorTileStaysDark(t *testing.T) {
	// A tile fed by one identity never promotes (K = 3) and therefore
	// never reaches the drift detector: no serving mass, no alarm — the
	// empty-tile edge case of the drift alarm under real pipeline flow.
	backend := newBackend(t)
	cfg := DefaultConfig()
	p := NewPipeline(cfg, backend)
	for i := 0; i < 20; i++ {
		p.IngestUpload(uploadAt("loner", 0, 0, -60, tRef.Add(time.Duration(i)*time.Minute)), 0.1, tRef.Add(time.Duration(i)*time.Minute))
	}
	if backend.Len() != 0 {
		t.Fatalf("single-contributor mass reached the serving store: %d records", backend.Len())
	}
	if reason := p.DriftAlarmReason(); reason != "" {
		t.Fatalf("unserved tile raised a drift alarm: %q", reason)
	}
	if st := p.Stats(0); st.Pending == 0 {
		t.Fatal("staged points missing from stats")
	}
}

func TestPipelineAllTrustedBitIdentical(t *testing.T) {
	// The acceptance bar for the whole subsystem: a store fed through the
	// pipeline by mature (weight exactly 1.0) contributors answers feature
	// queries bit-for-bit like a plain store that ingested the same
	// records directly — and TrustNum equals float64(Num) exactly.
	cfg := DefaultConfig()
	cfg.Quarantine.K = 1  // promote immediately: isolate the weighting
	cfg.WeightRefresh = 1 // push the table after every upload
	backend := newBackend(t)
	p := NewPipeline(cfg, backend)
	plain := newBackend(t)

	uploads := []*wifi.Upload{
		uploadAt("a", 0, 0, -60, tRef),
		uploadAt("b", 2, 1, -64, tRef.Add(time.Minute)),
		uploadAt("c", 1, -1, -58, tRef.Add(2*time.Minute)),
	}
	// Mature every contributor before the measured traffic so the pushed
	// table is exactly {a:1, b:1, c:1}: age and diversity saturated, the
	// uploads' agreement 1 - pFake far past AgreeFull.
	warm := tRef.Add(-48 * time.Hour)
	for _, name := range []string{"a", "b", "c"} {
		tiles := make([][2]int, 4)
		for i := range tiles {
			tiles[i] = [2]int{100 + i, 100}
		}
		p.ledger.Observe(name, tiles, 1.0, warm)
	}
	now := tRef.Add(3 * time.Minute)
	for _, u := range uploads {
		p.IngestUpload(u, 0.05, now)
		plain.Add(rssimap.UploadRecords([]*wifi.Upload{u}))
	}
	for _, name := range []string{"a", "b", "c"} {
		if w := p.Weight(name); w != 1.0 {
			t.Fatalf("contributor %s weight = %v, want exactly 1.0", name, w)
		}
	}

	probe := uploadAt("", 1, 0, -60, now)
	fcfg := rssimap.DefaultFeatureConfig()
	got, err := rssimap.Features(context.Background(), backend, probe, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rssimap.Features(context.Background(), plain, probe, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("feature dims differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("feature %d: pipeline %v != plain %v (bits differ)", i, got[i], want[i])
		}
	}
	ans := make([]rssimap.Answer, 1)
	if _, err := backend.Confidences(context.Background(), ans, []trajectory.Point{{Pos: geo.Point{X: 1, Y: 0}}}, []wifi.Scan{{{MAC: "ap-1", RSSI: -60}}}, fcfg, nil); err != nil {
		t.Fatal(err)
	}
	for _, pc := range ans[0].Confs {
		if pc.TrustNum != float64(pc.Num) {
			t.Fatalf("all-trusted TrustNum = %v, want exactly float64(Num) = %v", pc.TrustNum, float64(pc.Num))
		}
	}
}

func TestPipelineDriftGatePenalizesContributors(t *testing.T) {
	// Once a tile's alarm fires, further promotions into it are withheld
	// AND the contributors behind them forfeit the trust floor.
	backend := newBackend(t)
	cfg := DefaultConfig()
	cfg.Quarantine.K = 1 // promote directly so mass reaches the detector
	cfg.Drift.Window = 8
	cfg.Drift.MinSamples = 8
	cfg.TileSize = 1000 // one tile for the whole test geometry
	p := NewPipeline(cfg, backend)

	now := tRef
	step := func(contrib string, rssi int) IngestResult {
		now = now.Add(time.Minute)
		return p.IngestUpload(uploadAt(contrib, 0, 0, rssi, now), 0.1, now)
	}
	for i := 0; i < 4; i++ { // two full windows of stable mass
		step("honest", -60)
	}
	for i := 0; i < 2; i++ { // a full window of shifted mass: alarm trips
		step("shifter", -20)
	}
	if p.DriftAlarmReason() == "" {
		t.Fatal("distribution shift did not alarm")
	}
	floorW := p.Weight("never-seen")
	res := step("shifter", -20) // promotions now gated, contributor charged
	if res.DriftGated != 4 || res.Promoted != 0 {
		t.Fatalf("post-alarm ingestion: %+v, want all 4 gated", res)
	}
	if w := p.Weight("shifter"); w >= floorW {
		t.Fatalf("drift-implicated weight = %v, want below the %v floor", w, floorW)
	}
	st := p.Stats(0)
	if st.DriftGated != 4 || len(st.DriftAlarmed) != 1 {
		t.Fatalf("stats: %+v, want 4 gated and 1 alarmed tile", st)
	}
}

func TestPipelineStateRoundTrip(t *testing.T) {
	build := func(backend *rssimap.Store) *Pipeline {
		cfg := DefaultConfig()
		cfg.Quarantine.K = 2
		cfg.WeightRefresh = 2
		p := NewPipeline(cfg, backend)
		p.IngestUpload(uploadAt("a", 0, 0, -60, tRef), 0.1, tRef)
		p.IngestUpload(uploadAt("b", 0, 0.5, -61, tRef.Add(time.Minute)), 0.2, tRef.Add(time.Minute))
		p.IngestUpload(uploadAt("c", 50, 50, -70, tRef.Add(2*time.Minute)), 0.3, tRef.Add(2*time.Minute))
		return p
	}
	liveBackend := newBackend(t)
	live := build(liveBackend)

	restoredBackend := newBackend(t)
	restoredBackend.Add(liveBackend.Records()) // serving store recovers separately (snapshot)
	restored := NewPipeline(func() Config {
		cfg := DefaultConfig()
		cfg.Quarantine.K = 2
		cfg.WeightRefresh = 2
		return cfg
	}(), restoredBackend)
	restored.RestoreState(live.State())

	// Identical continuation: the same next upload promotes the same
	// records and produces the same stats on both sides.
	next := func(p *Pipeline) IngestResult {
		return p.IngestUpload(uploadAt("d", 0, 1, -60, tRef.Add(3*time.Minute)), 0.1, tRef.Add(3*time.Minute))
	}
	lr, rr := next(live), next(restored)
	if lr != rr {
		t.Fatalf("continuation diverged: live %+v, restored %+v", lr, rr)
	}
	if liveBackend.Len() != restoredBackend.Len() {
		t.Fatalf("serving stores diverged: %d vs %d records", liveBackend.Len(), restoredBackend.Len())
	}
	ls, rs := live.Stats(0), restored.Stats(0)
	if ls.Promoted != rs.Promoted || ls.Pending != rs.Pending ||
		ls.Contributors != rs.Contributors || ls.AcceptedUploads != rs.AcceptedUploads {
		t.Fatalf("stats diverged:\nlive     %+v\nrestored %+v", ls, rs)
	}
}
