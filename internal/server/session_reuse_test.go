package server

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"trajforge/internal/detect"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/trust"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// Session close reuse: a close takes each point's append-time confidences
// when no record has landed within r + R of the point (and no trust table has
// been pushed) since, and recomputes the rest. Each test drives a session,
// lands an accepted batch upload between its appends and its close, and holds
// the close to the same trajectory posted as a batch to a twin service that
// saw the same ingest: verdict bits and feature-vector bits alike.

// featureTap records the answers of its backend's last Confidences call, so
// a test can compare the vector a close scored with the one a batch upload
// scored (rssimap.AnswerFeatures of those answers).
type featureTap struct {
	rssimap.Backend
	mu   sync.Mutex
	last []rssimap.Answer
	cfg  rssimap.FeatureConfig
}

func (f *featureTap) Confidences(ctx context.Context, dst []rssimap.Answer, pts []trajectory.Point, scans []wifi.Scan, cfg rssimap.FeatureConfig, prior []rssimap.Answer) (int, error) {
	computed, err := f.Backend.Confidences(ctx, dst, pts, scans, cfg, prior)
	f.mu.Lock()
	defer f.mu.Unlock()
	// The answers live in the caller's pooled slots: keep copies.
	f.last, f.cfg = f.last[:0], cfg
	for _, a := range dst[:len(pts)] {
		f.last = append(f.last, rssimap.Answer{Confs: slices.Clone(a.Confs), Mark: a.Mark})
	}
	return computed, err
}

// SetTrustWeights passes a trust push through to the store under the tap
// (the trust pipeline pushes only to a backend that takes one).
func (f *featureTap) SetTrustWeights(w map[string]float64) {
	f.Backend.(rssimap.TrustWeighted).SetTrustWeights(w)
}

func (f *featureTap) lastFeatures() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.last) == 0 {
		return nil
	}
	return rssimap.AnswerFeatures(f.last, f.cfg)
}

// shiftedUpload is uploadFor's walk moved dx metres along the corridor.
func shiftedUpload(t *testing.T, seed int64, n int, dx float64) *wifi.Upload {
	u := uploadFor(t, seed, n)
	for i := range u.Traj.Points {
		u.Traj.Points[i].Pos.X += dx
	}
	return u
}

// reuseRun is what closeAfterIngest observed.
type reuseRun struct {
	got, want         *Verdict
	gotFeat, wantFeat []float64
	sessions          *stream.Stats // the session service's /v1/stats "sessions"
}

// closeAfterIngest streams u in three chunks into a session on a service over
// store, posts v as a batch upload to that service and to a twin over twin
// (both must accept it, so both ingest it), closes the session, and then posts
// u as a batch upload to the twin. store and twin must start equal. tcfg, when
// set, routes both services' ingestion through the trust pipeline.
func closeAfterIngest(t *testing.T, store, twin rssimap.Backend, model *xgb.Model, u, v *wifi.Upload, tcfg *trust.Config) reuseRun {
	t.Helper()
	tap, twinTap := &featureTap{Backend: store}, &featureTap{Backend: twin}
	fcfg := rssimap.DefaultFeatureConfig()
	_, _, client := newTestService(t, Config{
		Motion:         &fixedMotion{prob: 0.9},
		WiFi:           &detect.WiFiDetector{Store: tap, Model: model, Features: fcfg},
		IngestAccepted: true, Trust: tcfg,
		Stream: &stream.Config{DisableEarlyExit: true},
	})
	_, _, twinClient := newTestService(t, Config{
		Motion:         &fixedMotion{prob: 0.9},
		WiFi:           &detect.WiFiDetector{Store: twinTap, Model: model, Features: fcfg},
		IngestAccepted: true, Trust: tcfg,
	})

	id, err := client.OpenSession("reuse", "walking")
	if err != nil {
		t.Fatal(err)
	}
	n := u.Traj.Len()
	for seq, lo := 0, 0; lo < n; seq++ {
		hi := min(lo+n/3+1, n)
		if _, err := client.AppendSession(id, seq, u, lo, hi); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		lo = hi
	}
	for _, c := range []*Client{client, twinClient} {
		vv, err := c.Upload(v)
		if err != nil {
			t.Fatal(err)
		}
		if !vv.Accepted {
			t.Fatalf("interleaved upload rejected: %+v", vv)
		}
	}

	var r reuseRun
	if r.got, err = client.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	r.gotFeat = tap.lastFeatures()
	if r.want, err = twinClient.Upload(u); err != nil {
		t.Fatal(err)
	}
	r.wantFeat = twinTap.lastFeatures()
	st, err := client.FetchStats()
	if err != nil {
		t.Fatal(err)
	}
	r.sessions = st.Sessions
	return r
}

// sameBits asserts the close matched the twin's batch upload bit for bit, in
// the verdict and in every feature.
func (r reuseRun) sameBits(t *testing.T) {
	t.Helper()
	if len(r.gotFeat) == 0 || len(r.gotFeat) != len(r.wantFeat) {
		t.Fatalf("close scored %d features, batch %d", len(r.gotFeat), len(r.wantFeat))
	}
	for i := range r.wantFeat {
		if math.Float64bits(r.gotFeat[i]) != math.Float64bits(r.wantFeat[i]) {
			t.Fatalf("feature %d: close %v != batch %v (bits differ)", i, r.gotFeat[i], r.wantFeat[i])
		}
	}
	sameVerdict(t, r.got, r.want)
}

// reuseFixture is the seeded corridor, two equal stores over it and a model
// trained against it.
func reuseFixture(t *testing.T, seed int64) (store, twin *rssimap.Store, model *xgb.Model) {
	t.Helper()
	recs := persistRecords(rand.New(rand.NewSource(seed)), 400)
	var err error
	if store, err = rssimap.NewStore(rssimap.DefaultConfig(), recs); err != nil {
		t.Fatal(err)
	}
	if twin, err = rssimap.NewStore(rssimap.DefaultConfig(), recs); err != nil {
		t.Fatal(err)
	}
	return store, twin, trainTestDetector(t, store).Model
}

// TestSessionCloseAfterInterleavedIngest lands an accepted upload within
// r + R of the session's last points between its appends and its close: those
// points are recomputed, the rest reused, and the close still equals a batch
// upload of the same trajectory made right after, bit for bit. The counters
// are read over HTTP.
func TestSessionCloseAfterInterleavedIngest(t *testing.T) {
	store, twin, model := reuseFixture(t, 131)
	u := uploadFor(t, 120, 30)         // X 0 … 37 m
	v := shiftedUpload(t, 121, 30, 34) // X 34 … 79 m: overlaps u's tail
	r := closeAfterIngest(t, store, twin, model, u, v, nil)
	r.sameBits(t)
	n := int64(u.Traj.Len())
	t.Logf("close reused %d, recomputed %d", r.sessions.CloseReused, r.sessions.CloseRecomputed)
	if rc := r.sessions.CloseRecomputed; rc <= 0 || rc >= n {
		t.Fatalf("close recomputed %d of %d points, want some but not all", rc, n)
	}
	if r.sessions.CloseReused+r.sessions.CloseRecomputed != n {
		t.Fatalf("close reused %d + recomputed %d, want %d points", r.sessions.CloseReused, r.sessions.CloseRecomputed, n)
	}
}

// TestSessionCloseReusesPastFarIngest: an ingest far beyond r + R of every
// session point leaves every append-time answer reused.
func TestSessionCloseReusesPastFarIngest(t *testing.T) {
	store, twin, model := reuseFixture(t, 137)
	u := uploadFor(t, 120, 30)
	v := shiftedUpload(t, 121, 30, 200)
	r := closeAfterIngest(t, store, twin, model, u, v, nil)
	r.sameBits(t)
	if r.sessions.CloseReused != int64(u.Traj.Len()) || r.sessions.CloseRecomputed != 0 {
		t.Fatalf("close reused %d, recomputed %d; want all %d reused", r.sessions.CloseReused, r.sessions.CloseRecomputed, u.Traj.Len())
	}
}

// TestSessionCloseRecomputesAfterTrustPush: a trust table pushed between
// append and close (the pipeline pushes on every accepted upload here) changes
// θ1 and θ2 everywhere, so every point is recomputed, however far the upload
// that caused the push landed.
func TestSessionCloseRecomputesAfterTrustPush(t *testing.T) {
	store, twin, model := reuseFixture(t, 139)
	tcfg := trust.DefaultConfig()
	tcfg.WeightRefresh = 1
	u := uploadFor(t, 120, 30)
	v := shiftedUpload(t, 121, 30, 200)
	r := closeAfterIngest(t, store, twin, model, u, v, &tcfg)
	r.sameBits(t)
	if r.sessions.CloseRecomputed != int64(u.Traj.Len()) || r.sessions.CloseReused != 0 {
		t.Fatalf("close reused %d, recomputed %d; want all %d recomputed", r.sessions.CloseReused, r.sessions.CloseRecomputed, u.Traj.Len())
	}
}
