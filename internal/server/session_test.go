package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
	"trajforge/internal/wifi"
)

// sameVerdict asserts two verdicts are bit-identical, probabilities
// included.
func sameVerdict(t *testing.T, got, want *Verdict) {
	t.Helper()
	if got.Accepted != want.Accepted || got.Reason != want.Reason {
		t.Fatalf("verdict = %+v, want %+v", got, want)
	}
	if len(got.Checks) != len(want.Checks) {
		t.Fatalf("checks = %v, want %v", got.Checks, want.Checks)
	}
	for stage, status := range want.Checks {
		if got.Checks[stage] != status {
			t.Fatalf("stage %s = %s, want %s", stage, got.Checks[stage], status)
		}
	}
	for name, pair := range map[string][2]*float64{
		"motion": {got.MotionProbReal, want.MotionProbReal},
		"wifi":   {got.WiFiProbFake, want.WiFiProbFake},
	} {
		g, w := pair[0], pair[1]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s prob presence: %v vs %v", name, g, w)
		}
		if g != nil && math.Float64bits(*g) != math.Float64bits(*w) {
			t.Fatalf("%s prob %v != %v (bits differ)", name, *g, *w)
		}
	}
}

// streamUpload drives the upload through /v1/session in the given
// chunking and returns the close verdict.
func streamUpload(t *testing.T, client *Client, u *wifi.Upload, sizes []int) *Verdict {
	t.Helper()
	v, err := streamUploadErr(client, u, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// streamUploadErr is streamUpload for goroutines that may not call t.Fatal.
// A session the server rejects mid-stream stops appending and is closed.
func streamUploadErr(client *Client, u *wifi.Upload, sizes []int) (*Verdict, error) {
	id, err := client.OpenSession(u.Traj.ID, u.Traj.Mode.String())
	if err != nil {
		return nil, err
	}
	lo := 0
	for seq, n := range sizes {
		ack, err := client.AppendSession(id, seq, u, lo, lo+n)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", seq, err)
		}
		if ack.Seq != seq+1 || ack.Points != lo+n {
			return nil, fmt.Errorf("chunk %d ack = %+v", seq, ack)
		}
		lo += n
		if ack.Rejected {
			return client.CloseSession(id)
		}
	}
	if lo != u.Traj.Len() {
		return nil, fmt.Errorf("chunking covers %d of %d points", lo, u.Traj.Len())
	}
	return client.CloseSession(id)
}

// TestSessionVerdictBitIdenticalToBatch is the subsystem's headline
// property over the wire: for arbitrary chunkings, closing a streaming
// session yields the verdict POSTing the assembled trajectory to
// /v1/trajectory produces — JSON roundtrip, projection, and probability
// bits included.
func TestSessionVerdictBitIdenticalToBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), persistRecords(rng, 400))
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, store)
	// No ingestion and no replay history: the store is identical for both
	// paths regardless of call order.
	_, _, client := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: det,
		Stream: &stream.Config{DisableEarlyExit: true},
	})

	for trial := 0; trial < 6; trial++ {
		u := uploadFor(t, int64(2000+trial), 12+trial*4)
		u.Traj.ID = "prop"
		if trial%2 == 1 { // forged uploads must agree bit-for-bit too
			for j := range u.Scans {
				u.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
			}
		}
		want, err := client.Upload(u)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for n := u.Traj.Len(); n > 0; {
			c := 1 + rng.Intn(6)
			if c > n {
				c = n
			}
			sizes = append(sizes, c)
			n -= c
		}
		got := streamUpload(t, client, u, sizes)
		sameVerdict(t, got, want)
	}
}

func TestSessionAppendReplayIdempotent(t *testing.T) {
	_, _, client := newTestService(t, Config{Stream: &stream.Config{}})
	u := realisticUpload(t, 95)
	id, err := client.OpenSession("", "")
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.AppendSession(id, 0, u, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.AppendSession(id, 0, u, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Replayed || again.Ack != first.Ack {
		t.Fatalf("replayed ack = %+v, first = %+v", again, first)
	}
	// The replay applied nothing: the next chunk still continues at 5.
	if _, err := client.AppendSession(id, 1, u, 5, 10); err != nil {
		t.Fatal(err)
	}
}

// TestMethodNotAllowedAllowHeaders pins RFC 9110 §15.5.6: every 405 on the
// /v1 surface names the methods the endpoint does accept.
func TestMethodNotAllowedAllowHeaders(t *testing.T) {
	_, ts, _ := newTestService(t, Config{Stream: &stream.Config{}})
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/trajectory", "POST"},
		{http.MethodDelete, "/v1/trajectory", "POST"},
		{http.MethodPost, "/v1/stats", "GET"},
		{http.MethodPost, "/v1/health", "GET"},
		{http.MethodGet, "/v1/session/open", "POST"},
		{http.MethodGet, "/v1/session/append", "POST"},
		{http.MethodPut, "/v1/session/close", "POST"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Fatalf("%s %s Allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
	}
}

func TestSessionDisabledAnswers404(t *testing.T) {
	_, _, client := newTestService(t, Config{})
	_, err := client.OpenSession("", "")
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusNotFound {
		t.Fatalf("open without streaming = %v", err)
	}
}

func TestSessionErrorMapping(t *testing.T) {
	var clkMu sync.Mutex
	now := _t0
	clock := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clkMu.Lock()
		now = now.Add(d)
		clkMu.Unlock()
	}
	svc, _, client := newTestService(t, Config{Stream: &stream.Config{
		MaxSessions: 2, IdleTimeout: time.Minute, Clock: clock,
	}})
	u := realisticUpload(t, 96)

	// Unknown session.
	if _, err := client.AppendSession("ghost", 0, u, 0, 2); statusOf(err) != http.StatusNotFound {
		t.Fatalf("unknown session = %v", err)
	}
	if _, err := client.CloseSession("ghost"); statusOf(err) != http.StatusNotFound {
		t.Fatalf("close unknown = %v", err)
	}

	id, err := client.OpenSession("dup", "")
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate id.
	if _, err := client.OpenSession("dup", ""); statusOf(err) != http.StatusConflict {
		t.Fatalf("duplicate open = %v", err)
	}
	// Out-of-order chunk.
	if _, err := client.AppendSession(id, 5, u, 0, 2); statusOf(err) != http.StatusConflict {
		t.Fatalf("out-of-order = %v", err)
	}
	// A negative seq is an ordering conflict, not a replay of chunk -1.
	if _, err := client.AppendSession(id, -1, u, 0, 2); statusOf(err) != http.StatusConflict {
		t.Fatalf("negative seq = %v", err)
	}
	// An oversized client-supplied id is refused up front — before the open
	// frame could reach the WAL appender and fail there, degrading the
	// whole service.
	if _, err := client.OpenSession(strings.Repeat("x", stream.MaxIDLen+1), ""); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("oversized id = %v", err)
	}
	// Bad mode.
	if _, err := client.OpenSession("", "hovercraft"); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("bad mode = %v", err)
	}

	// Admission gate: second live session fills the table, third refused
	// with a Retry-After hint.
	if _, err := client.OpenSession("filler", ""); err != nil {
		t.Fatal(err)
	}
	_, err = client.OpenSession("overflow", "")
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusTooManyRequests || se.RetryAfter <= 0 {
		t.Fatalf("over-limit open = %v", err)
	}

	// Expiry: past the idle deadline the session answers 410 and is
	// evicted, freeing its admission slot; a later append finds nothing.
	advance(2 * time.Minute)
	if _, err := client.AppendSession(id, 0, u, 0, 2); statusOf(err) != http.StatusGone {
		t.Fatalf("expired append = %v", err)
	}
	if _, err := client.AppendSession(id, 0, u, 0, 2); statusOf(err) != http.StatusNotFound {
		t.Fatalf("append after eviction = %v", err)
	}
	// The freed slots admit new sessions again (the open path sweeps).
	if _, err := client.OpenSession("overflow", ""); err != nil {
		t.Fatalf("open after sweep = %v", err)
	}
	st := svc.Stats()
	if st.Sessions == nil || st.Sessions.Expired < 1 {
		t.Fatalf("session stats = %+v", st.Sessions)
	}
}

func statusOf(err error) int {
	if se, ok := err.(*StatusError); ok {
		return se.Code
	}
	return 0
}

func TestSessionEarlyExitOverHTTP(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), persistRecords(rng, 400))
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, store)
	svc, _, client := newTestService(t, Config{
		WiFi: det,
		Stream: &stream.Config{
			Window: 8, EarlyExit: 0.5, EarlyExitAfter: 8,
		},
	})
	u := uploadFor(t, 98, 16)
	for j := range u.Scans {
		u.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
	}
	id, err := client.OpenSession("", "walking")
	if err != nil {
		t.Fatal(err)
	}
	ack, err := client.AppendSession(id, 0, u, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Rejected {
		t.Fatalf("forged prefix not rejected: %+v", ack)
	}
	// Appends after the exit are refused with 409.
	if _, err := client.AppendSession(id, 1, u, 12, 16); statusOf(err) != http.StatusConflict {
		t.Fatalf("append after rejection = %v", err)
	}
	// Close records the rejection without running the pipeline.
	v, err := client.CloseSession(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["wifi"] != "fail" || v.Checks["rules"] != "skipped" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.WiFiProbFake == nil || *v.WiFiProbFake < 0.5 {
		t.Fatalf("provisional prob = %v", v.WiFiProbFake)
	}
	st := svc.Stats()
	if st.Rejected != 1 || st.Sessions.EarlyExits != 1 || st.Sessions.Closed != 1 {
		t.Fatalf("stats = %+v / %+v", st, st.Sessions)
	}
}

// TestSessionReplayRecoversFailedScore pins the retry contract: when a
// chunk commits (and journals) but the scoring step fails before the
// client hears back, retrying the same seq must answer with a freshly
// scored ack — not echo the stale pre-score one, which would silently lose
// the chunk's provisional verdict.
func TestSessionReplayRecoversFailedScore(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), persistRecords(rng, 400))
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, store)
	svc, _, client := newTestService(t, Config{
		WiFi: det, Stream: &stream.Config{DisableEarlyExit: true},
	})
	u := uploadFor(t, 110, 12)
	id, err := client.OpenSession("retry", "walking")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the failure: commit the chunk without scoring it. The
	// handler runs Buffer then Score; a Score failure leaves exactly this
	// state behind — chunk applied and journaled, no provisional verdict.
	if _, _, err := svc.bufferChunk(id, 0, u.Traj.Points[:8], u.Scans[:8]); err != nil {
		t.Fatal(err)
	}
	// The retry replays the committed chunk and must carry a fresh verdict.
	ack, err := client.AppendSession(id, 0, u, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Replayed {
		t.Fatalf("retry not recognised as replay: %+v", ack)
	}
	if ack.Scored != 8 || ack.WindowPoints == 0 {
		t.Fatalf("replayed ack not rescored: %+v", ack)
	}
}

func TestSessionCloseTooShortReopens(t *testing.T) {
	_, _, client := newTestService(t, Config{Stream: &stream.Config{}})
	u := realisticUpload(t, 99)
	id, err := client.OpenSession("", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AppendSession(id, 0, u, 0, 1); err != nil {
		t.Fatal(err)
	}
	// One point cannot enter the pipeline; the session reopens so the
	// client can append the rest and close again.
	if _, err := client.CloseSession(id); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("short close = %v", err)
	}
	if _, err := client.AppendSession(id, 1, u, 1, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CloseSession(id); err != nil {
		t.Fatalf("close after repair = %v", err)
	}
}

// TestSessionOnlineIngestion closes the paper's crowdsourcing loop over
// the streaming path: a session accepted as real must grow the RSSI store
// exactly as the batch path would — feature probes answer bit-identically.
func TestSessionOnlineIngestion(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	recs := persistRecords(rng, 400)
	storeA, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, storeA)
	detB := &detect.WiFiDetector{Store: storeB, Model: det.Model, Features: det.Features}

	_, _, sessClient := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: det, IngestAccepted: true,
		Stream: &stream.Config{DisableEarlyExit: true},
	})
	_, _, batchClient := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: detB, IngestAccepted: true,
	})

	u := uploadFor(t, 102, 20)
	v := streamUpload(t, sessClient, u, []int{7, 7, 6})
	if !v.Accepted {
		t.Fatalf("session verdict = %+v", v)
	}
	w, err := batchClient.Upload(u)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Accepted {
		t.Fatalf("batch verdict = %+v", w)
	}

	if storeA.Len() != storeB.Len() {
		t.Fatalf("store sizes %d != %d", storeA.Len(), storeB.Len())
	}
	probe := uploadFor(t, 103, 30)
	fa, err := rssimap.Features(context.Background(), storeA, probe, det.Features)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := rssimap.Features(context.Background(), storeB, probe, det.Features)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			t.Fatalf("feature %d: %v != %v (bits differ)", i, fa[i], fb[i])
		}
	}
}

// TestSessionSoakDurable is the streaming path's concurrency check under
// -race: concurrent sessions whose chunk appends interleave at the server,
// with the WAL journaling every frame, early exit on and accepted sessions
// ingested. Every session the clients drove must be opened and closed exactly
// once, and the server's verdict counters must equal the clients' tally.
func TestSessionSoakDurable(t *testing.T) {
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), persistRecords(rand.New(rand.NewSource(137)), 400))
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPersistence(t.TempDir(), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc, _, client := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9}, WiFi: trainTestDetector(t, store),
		IngestAccepted: true, Persist: p, Stream: &stream.Config{},
	})

	const workers, n = 6, 18
	uploads, forged := soakUploads(t, 6000, n, 16)
	verdicts := make([]*Verdict, n)
	soakSend(t, verdicts, 0, n, workers, func(i int) (*Verdict, error) {
		return streamUploadErr(client, uploads[i], []int{6, 5, 5})
	})
	accepted, realAccepted, forgedRejected := tallySoak(verdicts, forged)
	if realAccepted == 0 || forgedRejected == 0 {
		t.Fatalf("degenerate mix: %d real accepted, %d forged rejected", realAccepted, forgedRejected)
	}
	st := svc.Stats()
	if st.Sessions == nil || st.Sessions.Opened != n || st.Sessions.Closed != n {
		t.Fatalf("clients drove %d sessions, server stats = %+v", n, st.Sessions)
	}
	if st.Accepted != accepted || st.Rejected != n-accepted {
		t.Fatalf("server counted %d/%d, clients %d/%d", st.Accepted, st.Rejected, accepted, n-accepted)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close after soak: %v", err)
	}
}

// TestSessionCrashRecoveryResume crashes mid-session and proves recovery
// resumes the session exactly where the last acknowledged chunk left off:
// the remaining chunks append with their original sequence numbers and the
// final verdict matches the never-crashed run bit-for-bit.
func TestSessionCrashRecoveryResume(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(105))
	recs := persistRecords(rng, 400)

	// Reference: the same upload closed against a never-crashed twin.
	refStore, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, refStore)
	_, _, refClient := newTestService(t, Config{
		Motion: &fixedMotion{prob: 0.9},
		WiFi:   &detect.WiFiDetector{Store: refStore, Model: det.Model, Features: det.Features},
		Stream: &stream.Config{DisableEarlyExit: true},
	})
	u := uploadFor(t, 106, 18)
	want := streamUpload(t, refClient, u, []int{6, 6, 6})
	// A second session, far from the first, is closed right after recovery
	// without another append: none of its points has an append-time answer
	// then, so the close computes all of them.
	far := shiftedUpload(t, 107, 12, 200)
	far.Traj.ID = "unscored"
	wantFar := streamUpload(t, refClient, far, []int{12})

	// Run 1: open, append two chunks, flush, crash without closing.
	p1, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store1, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	_, _, client1 := newTestService(t, Config{
		Motion:  &fixedMotion{prob: 0.9},
		WiFi:    &detect.WiFiDetector{Store: store1, Model: det.Model, Features: det.Features},
		Stream:  &stream.Config{DisableEarlyExit: true},
		Persist: p1, IngestAccepted: true,
	})
	if err := p1.Compact(); err != nil {
		t.Fatal(err)
	}
	id, err := client1.OpenSession("survivor", "walking")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.AppendSession(id, 0, u, 0, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := client1.AppendSession(id, 1, u, 6, 12); err != nil {
		t.Fatal(err)
	}
	farID, err := client1.OpenSession(far.Traj.ID, "walking")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.AppendSession(farID, 0, far, 0, 12); err != nil {
		t.Fatal(err)
	}
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon without Close.

	// Run 2: recovery resumes the session with both chunks intact.
	p2, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := p2.Recovered()
	if len(state.Sessions) != 2 {
		t.Fatalf("recovered %d sessions, want 2", len(state.Sessions))
	}
	sess := state.Sessions[0]
	if sess.ID != "survivor" || sess.Chunks != 2 || len(sess.Points) != 12 {
		t.Fatalf("recovered session = id %q, %d chunks, %d points", sess.ID, sess.Chunks, len(sess.Points))
	}
	store2, err := rssimap.NewStore(rssimap.DefaultConfig(), state.Records)
	if err != nil {
		t.Fatal(err)
	}
	svc2, _, client2 := newTestService(t, Config{
		Motion:  &fixedMotion{prob: 0.9},
		WiFi:    &detect.WiFiDetector{Store: store2, Model: det.Model, Features: det.Features},
		Stream:  &stream.Config{DisableEarlyExit: true},
		Persist: p2, IngestAccepted: true,
	})
	svc2.Restore(state)
	if st := svc2.Stats(); st.Sessions.Resumed != 2 || st.Sessions.Open != 2 {
		t.Fatalf("restored session stats = %+v", st.Sessions)
	}
	gotFar, err := client2.CloseSession(farID)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, gotFar, wantFar)
	if st := svc2.Stats().Sessions; st.CloseRecomputed != 12 || st.CloseReused != 0 {
		t.Fatalf("restored session's close reused %d, recomputed %d; want all 12 recomputed", st.CloseReused, st.CloseRecomputed)
	}
	// The client continues where its last acknowledged chunk left off.
	ack, err := client2.AppendSession(id, 2, u, 12, 18)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Points != 18 {
		t.Fatalf("resumed ack = %+v", ack)
	}
	got, err := client2.CloseSession(id)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, got, want)
	// The append after recovery scored every buffered point, so this close
	// reused all 18.
	if st := svc2.Stats().Sessions; st.CloseReused != 18 {
		t.Fatalf("resumed session's close reused %d points, want 18", st.CloseReused)
	}

	// The verdict frame is durable: a third incarnation sees the session
	// resolved (accepted with its full trajectory), not in flight.
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state3 := p3.Recovered()
	if len(state3.Sessions) != 0 {
		t.Fatalf("run 3 recovered %d in-flight sessions, want 0", len(state3.Sessions))
	}
	wantAccepted := 1
	if gotFar.Accepted {
		wantAccepted++
	}
	if state3.Accepted != wantAccepted {
		t.Fatalf("run 3 accepted = %d, want %d", state3.Accepted, wantAccepted)
	}
}

// TestSessionEarlyExitSurvivesCrash proves the mid-stream rejection is as
// durable as any verdict: after a crash, the recovered session is still
// rejected — appends stay refused and close records the rejection without
// running the pipeline — instead of silently reverting to open.
func TestSessionEarlyExitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(111))
	recs := persistRecords(rng, 400)
	store1, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, store1)
	streamCfg := func() *stream.Config {
		return &stream.Config{Window: 8, EarlyExit: 0.5, EarlyExitAfter: 8}
	}

	// Run 1: stream a forged prefix until the early exit fires, flush,
	// crash without closing.
	p1, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client1 := newTestService(t, Config{
		WiFi: det, Stream: streamCfg(), Persist: p1,
	})
	if err := p1.Compact(); err != nil {
		t.Fatal(err)
	}
	u := uploadFor(t, 112, 16)
	for j := range u.Scans {
		u.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
	}
	id, err := client1.OpenSession("fraudster", "walking")
	if err != nil {
		t.Fatal(err)
	}
	ack, err := client1.AppendSession(id, 0, u, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Rejected {
		t.Fatalf("forged prefix not rejected: %+v", ack)
	}
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}

	// Run 2: the rejection marker came back with the session.
	p2, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := p2.Recovered()
	if len(state.Sessions) != 1 || !state.Sessions[0].Rejected {
		t.Fatalf("recovered sessions = %+v", state.Sessions)
	}
	store2, err := rssimap.NewStore(rssimap.DefaultConfig(), state.Records)
	if err != nil {
		t.Fatal(err)
	}
	svc2, _, client2 := newTestService(t, Config{
		WiFi:   &detect.WiFiDetector{Store: store2, Model: det.Model, Features: det.Features},
		Stream: streamCfg(), Persist: p2,
	})
	svc2.Restore(state)
	if _, err := client2.AppendSession(id, 1, u, 12, 16); statusOf(err) != http.StatusConflict {
		t.Fatalf("append after recovered rejection = %v", err)
	}
	v, err := client2.CloseSession(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["wifi"] != "fail" || v.Checks["rules"] != "skipped" {
		t.Fatalf("verdict after recovery = %+v", v)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 3: the verdict resolved the session for good.
	p3, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st3 := p3.Recovered()
	if len(st3.Sessions) != 0 || st3.Rejected != 1 || st3.Accepted != 0 {
		t.Fatalf("run 3 recovery = %d sessions, %d/%d verdicts",
			len(st3.Sessions), st3.Accepted, st3.Rejected)
	}
}

// TestSessionRecoveryAbortsWhenStreamingDisabled proves recovery fails
// safe: in-flight sessions recovered into a configuration that cannot hold
// them are aborted with a journaled verdict, so the next recovery does not
// see them again (and no chunk is silently ingested).
func TestSessionRecoveryAbortsWhenStreamingDisabled(t *testing.T) {
	dir := t.TempDir()
	p1, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client1 := newTestService(t, Config{
		Stream: &stream.Config{}, Persist: p1,
	})
	if err := p1.Compact(); err != nil {
		t.Fatal(err)
	}
	u := realisticUpload(t, 107)
	id, err := client1.OpenSession("doomed", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.AppendSession(id, 0, u, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash, then restart WITHOUT streaming.
	p2, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p2.Recovered().Sessions); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	svc2, _, _ := newTestService(t, Config{Persist: p2})
	svc2.Restore(p2.Recovered())
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	// The abort verdict is in the log: a third run recovers nothing.
	p3, err := OpenPersistence(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := p3.Recovered()
	if len(st.Sessions) != 0 || st.Accepted != 0 || st.Rejected != 0 {
		t.Fatalf("post-abort recovery = %d sessions, %d/%d verdicts",
			len(st.Sessions), st.Accepted, st.Rejected)
	}
}

// TestSessionCodecRoundtrip pins the new WAL frame payload codecs.
func TestSessionCodecRoundtrip(t *testing.T) {
	buf, err := appendSessionOpen(nil, "sess-1", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	id, mode, contrib, err := decodeSessionOpen(buf)
	if err != nil || id != "sess-1" || mode != 2 || contrib != "" {
		t.Fatalf("decoded open = %q/%v/%q/%v", id, mode, contrib, err)
	}
	for n := range buf {
		if _, _, _, err := decodeSessionOpen(buf[:n]); err == nil {
			t.Fatalf("open prefix of %d bytes decoded cleanly", n)
		}
	}
	if _, _, _, err := decodeSessionOpen(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := appendSessionOpen(nil, "", 0, ""); err == nil {
		t.Fatal("empty id encoded")
	}

	// A contributor-carrying open frame roundtrips; the prefix that stops
	// at the mode byte is itself a valid anonymous legacy frame, so the
	// truncation sweep starts after it.
	buf, err = appendSessionOpen(nil, "sess-1", 2, "device-7")
	if err != nil {
		t.Fatal(err)
	}
	legacyLen := 2 + len("sess-1") + 1
	id, mode, contrib, err = decodeSessionOpen(buf)
	if err != nil || id != "sess-1" || mode != 2 || contrib != "device-7" {
		t.Fatalf("decoded open = %q/%v/%q/%v", id, mode, contrib, err)
	}
	for n := legacyLen + 1; n < len(buf); n++ {
		if _, _, _, err := decodeSessionOpen(buf[:n]); err == nil {
			t.Fatalf("open prefix of %d bytes decoded cleanly", n)
		}
	}
	// An explicitly-present empty contributor block is refused: the
	// canonical encoding of "no contributor" is no block at all.
	bad := append(append([]byte(nil), buf[:legacyLen]...), 0, 0)
	if _, _, _, err := decodeSessionOpen(bad); err == nil {
		t.Fatal("empty contributor block accepted")
	}

	buf, err = appendSessionVerdict(nil, "sess-2", sessionAccepted, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	id, outcome, pFake, err := decodeSessionVerdict(buf)
	if err != nil || id != "sess-2" || outcome != sessionAccepted || pFake != 0.25 {
		t.Fatalf("decoded verdict = %q/%d/%v/%v", id, outcome, pFake, err)
	}
	// The prefix that stops at the outcome byte is a valid legacy frame
	// (score recovers as 0); every other truncation must error.
	legacyLen = 2 + len("sess-2") + 1
	for n := range buf {
		_, _, gotScore, err := decodeSessionVerdict(buf[:n])
		if n == legacyLen {
			if err != nil || gotScore != 0 {
				t.Fatalf("legacy verdict frame = %v/%v", gotScore, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("verdict prefix of %d bytes decoded cleanly", n)
		}
	}

	// Rejected/aborted verdicts carry no score and roundtrip bare.
	buf, err = appendSessionVerdict(nil, "sess-2", sessionAborted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id, outcome, _, err := decodeSessionVerdict(buf); err != nil || outcome != sessionAborted || id != "sess-2" {
		t.Fatalf("decoded abort = %q/%d/%v", id, outcome, err)
	}

	buf, err = appendSessionReject(nil, "sess-3")
	if err != nil {
		t.Fatal(err)
	}
	id, err = decodeSessionReject(buf)
	if err != nil || id != "sess-3" {
		t.Fatalf("decoded reject = %q/%v", id, err)
	}
	for n := range buf {
		if _, err := decodeSessionReject(buf[:n]); err == nil {
			t.Fatalf("reject prefix of %d bytes decoded cleanly", n)
		}
	}
	if _, err := decodeSessionReject(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := appendSessionReject(nil, ""); err == nil {
		t.Fatal("empty id encoded")
	}
}

// TestSessionSlowChunksStraddleTTLSweep is the HTTP-level pin of the
// absolute-TTL rule: a session streaming chunks slowly enough to straddle
// the TTL — while every append keeps its idle deadline fresh — must get
// 410 Gone on the append that lands past the TTL and must never receive a
// partial verdict from close. A sweep between the expiry and the next
// request turns the 410 into a 404 (evicted), never into a verdict.
func TestSessionSlowChunksStraddleTTLSweep(t *testing.T) {
	var clkMu sync.Mutex
	now := _t0
	clock := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clkMu.Lock()
		now = now.Add(d)
		clkMu.Unlock()
	}
	svc, _, client := newTestService(t, Config{Stream: &stream.Config{
		TTL: 5 * time.Minute, IdleTimeout: time.Hour, Clock: clock,
	}})
	u := uploadFor(t, 118, 12)

	id, err := client.OpenSession("slow-ttl", "")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		ack, err := client.AppendSession(id, seq, u, seq*3, (seq+1)*3)
		if err != nil {
			t.Fatalf("chunk %d at %v: %v", seq, clock().Sub(_t0), err)
		}
		if ack.Rejected {
			t.Fatalf("chunk %d rejected mid-stream", seq)
		}
		advance(2 * time.Minute)
	}
	// t = 6m > TTL = 5m; the idle deadline is 2 minutes fresh. The append
	// straddling the TTL answers 410 — the client learns the session is
	// dead, not that its chunk was acked.
	if _, err := client.AppendSession(id, 3, u, 9, 12); statusOf(err) != http.StatusGone {
		t.Fatalf("append past TTL = %v, want 410", err)
	}
	// The 410 evicted the session; a retried close finds nothing — and in
	// particular no partial verdict over the 9 buffered points.
	if _, err := client.CloseSession(id); statusOf(err) != http.StatusNotFound {
		t.Fatalf("close after TTL eviction = %v, want 404", err)
	}

	// Second session: the ticker sweep (rather than a straddling request)
	// collects it once the TTL passes, with the same no-partial-verdict
	// outcome for the client.
	id2, err := client.OpenSession("slow-ttl-2", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AppendSession(id2, 0, u, 0, 6); err != nil {
		t.Fatal(err)
	}
	advance(6 * time.Minute)
	if n := svc.SweepSessions(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if _, err := client.AppendSession(id2, 1, u, 6, 9); statusOf(err) != http.StatusNotFound {
		t.Fatalf("append after sweep = %v, want 404", err)
	}
	if _, err := client.CloseSession(id2); statusOf(err) != http.StatusNotFound {
		t.Fatalf("close after sweep = %v, want 404", err)
	}
	st := svc.Stats()
	if st.Sessions == nil || st.Sessions.Expired != 2 {
		t.Fatalf("expired sessions = %+v, want 2", st.Sessions)
	}
}
