package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/mobility"
	"trajforge/internal/rssimap"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

var t0 = time.Date(2022, 7, 1, 9, 0, 0, 0, time.UTC)

// walkUpload builds one seeded walking upload along the fixture route with
// a constant in-coverage scan per point.
func walkUpload(t *testing.T, seed int64, points int) *wifi.Upload {
	t.Helper()
	tk, err := mobility.Simulate(rand.New(rand.NewSource(seed)), mobility.Options{
		Route:     []geo.Point{{X: 0, Y: 0}, {X: 300, Y: 0}},
		Mode:      trajectory.ModeWalking,
		Start:     t0,
		Interval:  time.Second,
		MaxPoints: points,
	})
	if err != nil {
		t.Fatal(err)
	}
	traj := tk.Trajectory()
	scans := make([]wifi.Scan, traj.Len())
	for i := range scans {
		scans[i] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -60}}
	}
	return &wifi.Upload{Traj: traj, Scans: scans}
}

// newDetector trains a tiny but real WiFi detector over a dense
// crowdsourced history along the fixture route. Forged training scans are
// implausibly strong (-30 dBm), the signature the early-exit tests forge.
func newDetector(t *testing.T) *detect.WiFiDetector {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	recs := make([]rssimap.Record, 400)
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
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	real := make([]*wifi.Upload, 4)
	fake := make([]*wifi.Upload, 4)
	for i := range real {
		real[i] = walkUpload(t, int64(700+i), 20)
		f := walkUpload(t, int64(710+i), 20)
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

// fakeClock is a mutable deterministic Config.Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// appendAll streams the upload into the session in chunks of the given
// sizes (which must sum to the upload's length), starting at chunk
// startSeq, and returns the last ack.
func appendAll(t *testing.T, m *Manager, id string, startSeq int, u *wifi.Upload, sizes []int) Ack {
	t.Helper()
	var ack Ack
	lo := 0
	for i, n := range sizes {
		var err error
		ack, _, err = m.AppendChunk(id, startSeq+i, u.Traj.Points[lo:lo+n], u.Scans[lo:lo+n])
		if err != nil {
			t.Fatalf("chunk %d (%d points): %v", startSeq+i, n, err)
		}
		lo += n
	}
	if lo != u.Traj.Len() {
		t.Fatalf("chunking covers %d of %d points", lo, u.Traj.Len())
	}
	return ack
}

// randomChunking splits n points into random chunk sizes in [1, 6].
func randomChunking(rng *rand.Rand, n int) []int {
	var sizes []int
	for n > 0 {
		c := 1 + rng.Intn(6)
		if c > n {
			c = n
		}
		sizes = append(sizes, c)
		n -= c
	}
	return sizes
}

func sameUpload(t *testing.T, got, want *wifi.Upload) {
	t.Helper()
	if got.Traj.Len() != want.Traj.Len() {
		t.Fatalf("assembled %d points, want %d", got.Traj.Len(), want.Traj.Len())
	}
	for i := range want.Traj.Points {
		p, q := want.Traj.Points[i], got.Traj.Points[i]
		if math.Float64bits(p.Pos.X) != math.Float64bits(q.Pos.X) ||
			math.Float64bits(p.Pos.Y) != math.Float64bits(q.Pos.Y) {
			t.Fatalf("point %d pos %v != %v (bits differ)", i, q.Pos, p.Pos)
		}
		if !p.Time.Equal(q.Time) {
			t.Fatalf("point %d time %v != %v", i, q.Time, p.Time)
		}
		if len(got.Scans[i]) != len(want.Scans[i]) {
			t.Fatalf("scan %d len %d != %d", i, len(got.Scans[i]), len(want.Scans[i]))
		}
		for j := range want.Scans[i] {
			if got.Scans[i][j] != want.Scans[i][j] {
				t.Fatalf("scan %d obs %d = %+v, want %+v", i, j, got.Scans[i][j], want.Scans[i][j])
			}
		}
	}
}

func TestLifecycle(t *testing.T) {
	m := newManager(t, Config{})
	u := walkUpload(t, 1, 12)

	id, err := m.Open("", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("no generated id")
	}
	if _, err := m.Open(id, trajectory.ModeWalking); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate open = %v", err)
	}

	// Out-of-order chunk refused with the expected cursor.
	var seqErr *SeqError
	if _, _, err := m.AppendChunk(id, 3, u.Traj.Points[:4], u.Scans[:4]); !errors.As(err, &seqErr) || seqErr.Want != 0 {
		t.Fatalf("out-of-order append = %v", err)
	}
	// A negative seq on a fresh session is an ordering error too, not a
	// "replay" of a chunk that never existed.
	if _, _, err := m.AppendChunk(id, -1, u.Traj.Points[:4], u.Scans[:4]); !errors.As(err, &seqErr) || seqErr.Want != 0 {
		t.Fatalf("negative seq append = %v", err)
	}
	ack, replayed, err := m.AppendChunk(id, 0, u.Traj.Points[:4], u.Scans[:4])
	if err != nil || replayed {
		t.Fatalf("chunk 0: ack=%+v replayed=%v err=%v", ack, replayed, err)
	}
	if ack.Seq != 1 || ack.Points != 4 || ack.Scored != 4 {
		t.Fatalf("ack = %+v", ack)
	}
	// Replaying the applied chunk is acknowledged idempotently.
	re, replayed, err := m.AppendChunk(id, 0, u.Traj.Points[:4], u.Scans[:4])
	if err != nil || !replayed || re != ack {
		t.Fatalf("replay: ack=%+v replayed=%v err=%v (want %+v)", re, replayed, err, ack)
	}

	// Malformed chunks.
	if _, _, err := m.AppendChunk(id, 1, nil, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if _, _, err := m.AppendChunk(id, 1, u.Traj.Points[4:8], u.Scans[4:6]); err == nil {
		t.Fatal("scan/point mismatch accepted")
	}
	// Non-monotonic time at the chunk boundary.
	if _, _, err := m.AppendChunk(id, 1, u.Traj.Points[:2], u.Scans[:2]); !errors.Is(err, trajectory.ErrNotMonotonic) {
		t.Fatalf("rewound chunk = %v", err)
	}
	// Irregular cadence inside a chunk.
	warped := append([]trajectory.Point(nil), u.Traj.Points[4:8]...)
	warped[2].Time = warped[2].Time.Add(5 * time.Second)
	if _, _, err := m.AppendChunk(id, 1, warped, u.Scans[4:8]); !errors.Is(err, trajectory.ErrIrregular) {
		t.Fatalf("warped chunk = %v", err)
	}

	ack = appendAll(t, m, id, 1, &wifi.Upload{
		Traj:  &trajectory.T{Points: u.Traj.Points[4:]},
		Scans: u.Scans[4:],
	}, []int{4, 4})
	_ = ack

	got, _, err := m.BeginClose(id)
	if err != nil {
		t.Fatal(err)
	}
	sameUpload(t, got, u)
	if got.Traj.ID != id || got.Traj.Mode != trajectory.ModeWalking {
		t.Fatalf("assembled header = %q/%v", got.Traj.ID, got.Traj.Mode)
	}
	// While closing, appends and second closes are refused; AbortClose
	// reopens.
	if _, _, err := m.AppendChunk(id, 3, u.Traj.Points[:1], u.Scans[:1]); !errors.Is(err, ErrClosing) {
		t.Fatalf("append while closing = %v", err)
	}
	if _, _, err := m.BeginClose(id); !errors.Is(err, ErrClosing) {
		t.Fatalf("double close = %v", err)
	}
	m.AbortClose(id)
	if _, _, err := m.BeginClose(id); err != nil {
		t.Fatalf("close after abort = %v", err)
	}
	m.Resolve(id)
	if _, _, err := m.AppendChunk(id, 3, u.Traj.Points[:1], u.Scans[:1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append after resolve = %v", err)
	}

	st := m.Stats()
	if st.Open != 0 || st.Opened != 1 || st.Closed != 1 || st.Chunks != 3 || st.OpenPoints != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPointBudget(t *testing.T) {
	m := newManager(t, Config{MaxPoints: 6})
	u := walkUpload(t, 2, 12)
	id, err := m.Open("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendChunk(id, 0, u.Traj.Points[:4], u.Scans[:4]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendChunk(id, 1, u.Traj.Points[4:8], u.Scans[4:8]); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("over-budget chunk = %v", err)
	}
	// The refused chunk was not applied; the budget-respecting one lands.
	if _, _, err := m.AppendChunk(id, 1, u.Traj.Points[4:6], u.Scans[4:6]); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionAndExpiry(t *testing.T) {
	clk := &fakeClock{now: t0}
	m := newManager(t, Config{
		MaxSessions: 2, TTL: time.Hour, IdleTimeout: time.Minute,
		Clock: clk.Now,
	})
	u := walkUpload(t, 3, 4)
	if _, err := m.Open("a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("c", 0); !errors.Is(err, ErrLimit) {
		t.Fatalf("third open = %v", err)
	}
	if got := m.RetryAfter(); got != time.Minute {
		t.Fatalf("RetryAfter = %v", got)
	}

	// Past the idle deadline both sessions stop counting against the gate
	// and refuse work, but stay registered until swept.
	clk.Advance(2 * time.Minute)
	if _, err := m.Open("c", 0); err != nil {
		t.Fatalf("open after idle expiry = %v", err)
	}
	if _, _, err := m.AppendChunk("a", 0, u.Traj.Points[:2], u.Scans[:2]); !errors.Is(err, ErrExpired) {
		t.Fatalf("append to expired = %v", err)
	}
	if _, _, err := m.BeginClose("a"); !errors.Is(err, ErrExpired) {
		t.Fatalf("close of expired = %v", err)
	}
	ids := m.ExpiredIDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("expired ids = %v", ids)
	}
	for _, id := range ids {
		if !m.Evict(id, true) {
			t.Fatalf("evict %s failed", id)
		}
	}
	if m.Evict("a", true) {
		t.Fatal("double evict succeeded")
	}

	// Activity refreshes the idle deadline; the absolute TTL still fires.
	if _, _, err := m.AppendChunk("c", 0, u.Traj.Points[:2], u.Scans[:2]); err != nil {
		t.Fatal(err)
	}
	clk.Advance(59 * time.Minute)
	if ids := m.ExpiredIDs(); len(ids) != 1 || ids[0] != "c" {
		t.Fatalf("TTL expiry ids = %v", ids)
	}

	st := m.Stats()
	if st.Opened != 3 || st.Expired != 2 || st.Open != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpenIDLengthCap(t *testing.T) {
	m := newManager(t, Config{})
	if _, err := m.Open(strings.Repeat("x", MaxIDLen+1), 0); !errors.Is(err, ErrIDTooLong) {
		t.Fatalf("oversized id open = %v", err)
	}
	if _, err := m.Open(strings.Repeat("x", MaxIDLen), 0); err != nil {
		t.Fatalf("max-length id refused: %v", err)
	}
}

// TestConcurrentOpenAndAppend hammers Open's live-session count and the
// expiry sweep (both of which read every session's activity clock) against
// concurrent appends that refresh those clocks — -race must prove the
// interleaving safe.
func TestConcurrentOpenAndAppend(t *testing.T) {
	m := newManager(t, Config{MaxSessions: 256})
	u := walkUpload(t, 5, 40)
	const workers = 8
	ids := make([]string, workers)
	for i := range ids {
		id, err := m.Open(fmt.Sprintf("w-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			lo := 0
			for seq := 0; seq < 10; seq++ {
				if _, _, err := m.AppendChunk(ids[i], seq, u.Traj.Points[lo:lo+4], u.Scans[lo:lo+4]); err != nil {
					t.Error(err)
					return
				}
				lo += 4
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				id, err := m.Open("", 0)
				if err != nil {
					t.Error(err)
					return
				}
				m.ExpiredIDs()
				m.Evict(id, false)
			}
		}()
	}
	wg.Wait()
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewManager(Config{EarlyExit: 1.5}); err == nil {
		t.Fatal("out-of-range early-exit threshold accepted")
	}
	if _, err := NewManager(Config{EarlyExit: 1.5, DisableEarlyExit: true}); err != nil {
		t.Fatalf("disabled early exit still validates the threshold: %v", err)
	}
}

func TestProvisionalScoringAndEarlyExit(t *testing.T) {
	det := newDetector(t)
	m := newManager(t, Config{
		Detector: det, Window: 8, EarlyExit: 0.5, EarlyExitAfter: 8,
	})

	// An honest stream scores low and never trips the exit.
	honest := walkUpload(t, 11, 16)
	id, err := m.Open("honest", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	ack := appendAll(t, m, id, 0, honest, []int{5, 5, 6})
	if ack.Rejected {
		t.Fatalf("honest stream rejected: %+v", ack)
	}
	if ack.Scored != 16 || ack.WindowPoints != 8 {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.ProvisionalProbFake < 0 || ack.ProvisionalProbFake >= 0.5 {
		t.Fatalf("honest provisional P(fake) = %v", ack.ProvisionalProbFake)
	}

	// A forged stream (implausibly strong RSSIs, the training-fake
	// signature) trips the exit once the prefix is long enough.
	forged := walkUpload(t, 12, 16)
	for i := range forged.Scans {
		forged.Scans[i] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
	}
	fid, err := m.Open("forged", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	ack, _, err = m.AppendChunk(fid, 0, forged.Traj.Points[:4], forged.Scans[:4])
	if err != nil {
		t.Fatal(err)
	}
	if ack.Rejected {
		t.Fatalf("exit fired before EarlyExitAfter: %+v", ack)
	}
	ack, _, err = m.AppendChunk(fid, 1, forged.Traj.Points[4:12], forged.Scans[4:12])
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Rejected {
		t.Fatalf("forged prefix not rejected: %+v", ack)
	}
	if _, _, err := m.AppendChunk(fid, 2, forged.Traj.Points[12:], forged.Scans[12:]); !errors.Is(err, ErrRejected) {
		t.Fatalf("append after rejection = %v", err)
	}
	// Close confirms the rejection without handing back an upload.
	u, ack, err := m.BeginClose(fid)
	if err != nil {
		t.Fatal(err)
	}
	if u != nil || !ack.Rejected {
		t.Fatalf("close of rejected session: upload=%v ack=%+v", u, ack)
	}
	m.Resolve(fid)

	if st := m.Stats(); st.EarlyExits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestChunkingBitIdentical is the subsystem's property test: streaming a
// trajectory in arbitrary chunkings and closing must assemble an upload
// bit-identical to the batch original — positions, timestamps, scans, and
// therefore the detector's verdict. Sessions run concurrently against one
// shared manager and store, so -race covers the locking discipline.
func TestChunkingBitIdentical(t *testing.T) {
	det := newDetector(t)
	m := newManager(t, Config{Detector: det, DisableEarlyExit: true})

	const sessions = 8
	uploads := make([]*wifi.Upload, sessions)
	wantProb := make([]float64, sessions)
	for i := range uploads {
		uploads[i] = walkUpload(t, int64(100+i), 10+i*3)
		if i%3 == 2 { // forged streams must stay bit-identical too
			for j := range uploads[i].Scans {
				uploads[i].Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
			}
		}
		p, err := det.ProbFake(uploads[i])
		if err != nil {
			t.Fatal(err)
		}
		wantProb[i] = p
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	assembled := make([]*wifi.Upload, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + i)))
			u := uploads[i]
			id, err := m.Open("", trajectory.ModeWalking)
			if err != nil {
				errs <- err
				return
			}
			lo := 0
			for seq, n := range randomChunking(rng, u.Traj.Len()) {
				if _, _, err := m.AppendChunk(id, seq, u.Traj.Points[lo:lo+n], u.Scans[lo:lo+n]); err != nil {
					errs <- err
					return
				}
				lo += n
			}
			got, _, err := m.BeginClose(id)
			if err != nil {
				errs <- err
				return
			}
			assembled[i] = got
			m.Resolve(id)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, got := range assembled {
		sameUpload(t, got, uploads[i])
		// The assembled upload is scored by the exact batch path; equal
		// bits in, equal bits out.
		prob, err := det.ProbFake(got)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(prob) != math.Float64bits(wantProb[i]) {
			t.Fatalf("session %d P(fake) = %v, batch %v (bits differ)", i, prob, wantProb[i])
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	det := newDetector(t)
	m := newManager(t, Config{Detector: det, DisableEarlyExit: true})
	u := walkUpload(t, 21, 12)

	id, err := m.Open("resume-me", trajectory.ModeCycling)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendChunk(id, 0, u.Traj.Points[:5], u.Scans[:5]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendChunk(id, 1, u.Traj.Points[5:8], u.Scans[5:8]); err != nil {
		t.Fatal(err)
	}

	states := m.SnapshotSessions()
	if len(states) != 1 || states[0].ID != id || states[0].Chunks != 2 || len(states[0].Points) != 8 {
		t.Fatalf("snapshot = %+v", states)
	}

	// A restarted manager resumes the session; the chunk cursor and the
	// buffered prefix carry over, scoring restarts lazily.
	m2 := newManager(t, Config{Detector: det, DisableEarlyExit: true})
	if err := m2.RestoreSession(states[0]); err != nil {
		t.Fatal(err)
	}
	if err := m2.RestoreSession(states[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("double restore = %v", err)
	}
	ack, _, err := m2.AppendChunk(id, 2, u.Traj.Points[8:], u.Scans[8:])
	if err != nil {
		t.Fatal(err)
	}
	if ack.Points != 12 || ack.Scored != 12 {
		t.Fatalf("resumed ack = %+v", ack)
	}
	got, _, err := m2.BeginClose(id)
	if err != nil {
		t.Fatal(err)
	}
	sameUpload(t, got, u)
	if got.Traj.Mode != trajectory.ModeCycling {
		t.Fatalf("restored mode = %v", got.Traj.Mode)
	}
	if st := m2.Stats(); st.Resumed != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A session the restarted configuration cannot hold is refused.
	tiny := newManager(t, Config{MaxPoints: 4})
	if err := tiny.RestoreSession(states[0]); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("over-budget restore = %v", err)
	}
}

// TestSnapshotRestoreRejected pins that the early-exit marker is sticky
// across snapshot and restore: a client already told its prefix is forged
// stays refused after recovery instead of being silently readmitted.
func TestSnapshotRestoreRejected(t *testing.T) {
	det := newDetector(t)
	cfg := Config{Detector: det, Window: 8, EarlyExit: 0.5, EarlyExitAfter: 8}
	m := newManager(t, cfg)
	forged := walkUpload(t, 31, 16)
	for i := range forged.Scans {
		forged.Scans[i] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
	}
	id, err := m.Open("fraud", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	ack, _, err := m.AppendChunk(id, 0, forged.Traj.Points[:12], forged.Scans[:12])
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Rejected {
		t.Fatalf("forged prefix not rejected: %+v", ack)
	}

	states := m.SnapshotSessions()
	if len(states) != 1 || !states[0].Rejected {
		t.Fatalf("snapshot = %+v", states)
	}

	m2 := newManager(t, cfg)
	if err := m2.RestoreSession(states[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.AppendChunk(id, 1, forged.Traj.Points[12:], forged.Scans[12:]); !errors.Is(err, ErrRejected) {
		t.Fatalf("append after restored rejection = %v", err)
	}
	u, ack, err := m2.BeginClose(id)
	if err != nil || u != nil || !ack.Rejected {
		t.Fatalf("close of restored rejection: upload=%v ack=%+v err=%v", u, ack, err)
	}
	// Aborting the close must not readmit a rejected session either.
	m2.AbortClose(id)
	if _, _, err := m2.AppendChunk(id, 1, forged.Traj.Points[12:], forged.Scans[12:]); !errors.Is(err, ErrRejected) {
		t.Fatalf("append after aborted close of rejection = %v", err)
	}
}

// failingBackend fails every confidence query while down is set.
type failingBackend struct {
	rssimap.Backend
	down bool
}

func (f *failingBackend) Confidences(ctx context.Context, dst []rssimap.Answer, pts []trajectory.Point, scans []wifi.Scan, cfg rssimap.FeatureConfig, prior []rssimap.Answer) (int, error) {
	if f.down {
		return 0, errors.New("store unreachable")
	}
	return f.Backend.Confidences(ctx, dst, pts, scans, cfg, prior)
}

// TestScoreFailsClosedAndCloseReuses: a failed confidence query fails the
// append with ErrStore and caches nothing; the retry scores the rest; the
// close then reuses every append-time answer under the append's feature
// config and recomputes every point under another, bit-identical to the
// batch path both ways.
func TestScoreFailsClosedAndCloseReuses(t *testing.T) {
	det := newDetector(t)
	fb := &failingBackend{Backend: det.Store}
	sdet := &detect.WiFiDetector{Store: fb, Model: det.Model, Features: det.Features}
	m := newManager(t, Config{Detector: sdet, DisableEarlyExit: true})
	u := walkUpload(t, 160, 16)
	id, err := m.Open("", trajectory.ModeWalking)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendChunk(id, 0, u.Traj.Points[:8], u.Scans[:8]); err != nil {
		t.Fatal(err)
	}
	fb.down = true
	ack, _, err := m.AppendChunk(id, 1, u.Traj.Points[8:], u.Scans[8:])
	if !errors.Is(err, ErrStore) {
		t.Fatalf("append against a failing store = %v, want ErrStore", err)
	}
	if ack.Scored != 8 || m.Stats().PointsScored != 8 {
		t.Fatalf("failed append scored: ack %+v, stats %+v", ack, m.Stats())
	}
	fb.down = false
	if ack, err = m.Score(context.Background(), id); err != nil || ack.Scored != 16 {
		t.Fatalf("retry = %+v, %v; want all 16 scored", ack, err)
	}

	got, _, err := m.BeginClose(id)
	if err != nil {
		t.Fatal(err)
	}
	other := det.Features
	other.Tol++
	for _, tc := range []struct {
		cfg                rssimap.FeatureConfig
		reused, recomputed int64
	}{
		{det.Features, 16, 0},
		{other, 16, 16}, // counters accumulate: the second close recomputed all 16
	} {
		feat, err := m.CloseFeatures(context.Background(), id, got, fb, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rssimap.Features(context.Background(), det.Store, got, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(feat[i]) != math.Float64bits(want[i]) {
				t.Fatalf("tol %d: feature %d: close %v != batch %v", tc.cfg.Tol, i, feat[i], want[i])
			}
		}
		if st := m.Stats(); st.CloseReused != tc.reused || st.CloseRecomputed != tc.recomputed {
			t.Fatalf("tol %d: close reused %d, recomputed %d; want %d, %d", tc.cfg.Tol, st.CloseReused, st.CloseRecomputed, tc.reused, tc.recomputed)
		}
	}
	m.Resolve(id)
}
