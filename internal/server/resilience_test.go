package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
	"trajforge/internal/geo"
	"trajforge/internal/resilience"
	"trajforge/internal/trajectory"
)

func TestStatusErrorRetryable(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusTooManyRequests:       true,
		http.StatusBadGateway:            true,
		http.StatusServiceUnavailable:    true,
		http.StatusGatewayTimeout:        true,
		http.StatusBadRequest:            false,
		http.StatusNotFound:              false,
		http.StatusRequestEntityTooLarge: false,
		http.StatusInternalServerError:   false,
	} {
		se := &StatusError{Code: code, Body: "x"}
		if se.Retryable() != want {
			t.Errorf("StatusError(%d).Retryable() = %v, want %v", code, !want, want)
		}
	}
	se := &StatusError{Code: 503, Body: "degraded"}
	if se.Error() != "server: status 503: degraded" {
		t.Fatalf("Error() = %q", se.Error())
	}
}

// blockingMotion parks every upload inside the pipeline until released, so
// tests can hold admission slots occupied for as long as they need.
type blockingMotion struct {
	entered chan struct{}
	release chan struct{}
}

func (m *blockingMotion) Name() string { return "blocking-stub" }
func (m *blockingMotion) ProbReal(*trajectory.T) float64 {
	m.entered <- struct{}{}
	<-m.release
	return 1
}

// TestAdmissionShedsWith429 pins the overload contract end to end: with
// one slot and a one-deep queue, a third concurrent upload is shed with
// 429 and a Retry-After hint, and the admission counters record every
// outcome. (QueueDepth 1 is the smallest expressible queue — the server
// treats 0 as "use the 2*MaxInFlight default".)
func TestAdmissionShedsWith429(t *testing.T) {
	stub := &blockingMotion{entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc, ts, client := newTestService(t, Config{
		Motion: stub, MaxInFlight: 1, QueueDepth: 1,
	})

	admitted := make(chan error, 2)
	go func() {
		_, err := client.Upload(realisticUpload(t, 61))
		admitted <- err
	}()
	<-stub.entered // the first upload now owns the only slot

	go func() {
		_, err := client.Upload(realisticUpload(t, 62))
		admitted <- err
	}()
	// Wait for the second upload to occupy the single queue slot.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if a := svc.Stats().Admission; a != nil && a.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second upload never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/trajectory", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third upload = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(stub.release)
	for i := 0; i < 2; i++ {
		if err := <-admitted; err != nil {
			t.Fatalf("admitted upload failed: %v", err)
		}
	}
	st, err := client.FetchStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil {
		t.Fatal("stats missing admission section")
	}
	if st.Admission.Admitted != 2 || st.Admission.ShedQueueFull != 1 {
		t.Fatalf("admission counters = %+v", st.Admission)
	}
}

// TestOverloadShedsAndAccounts offers 16 closed-loop senders to a provider
// that admits 2 with a wait queue of 2. A blocking 5 ms service time makes
// pipeline occupancy track offered concurrency even on one CPU, where the
// real sub-millisecond stages would serialise ahead of the admission gate.
// The excess must be shed as 429 + Retry-After and nothing else, the
// admission counters must account for every request offered and agree with
// what the clients saw, and what is admitted must not queue without bound.
func TestOverloadShedsAndAccounts(t *testing.T) {
	// At most QueueDepth requests ever wait, so an admitted one waits at
	// most QueueDepth service times on top of its own. One scheduling stall
	// on a shared host can push the tail of a ~30-sample round past the
	// bound; unbounded queueing pushes every round past it.
	for attempt := 1; ; attempt++ {
		calm, admitted := overloadRound(t)
		limit := 3*calm + 25*time.Millisecond
		if raceEnabled || admitted <= limit {
			return
		}
		if attempt == 3 {
			t.Fatalf("admitted p99 %v exceeds %v (uncontended p99 %v)", admitted, limit, calm)
		}
		t.Logf("attempt %d: admitted p99 %v exceeds %v, measuring again", attempt, admitted, limit)
	}
}

// overloadRound runs one uncontended baseline and one overload phase against
// a fresh provider, asserts the shed contract and the accounting identity,
// and returns the p99 latency of the baseline and of the admitted uploads.
func overloadRound(t *testing.T) (calmP99, admittedP99 time.Duration) {
	t.Helper()
	svc, ts, client := newTestService(t, Config{
		Motion:      &fixedMotion{prob: 0.9, delay: 5 * time.Millisecond},
		MaxInFlight: 2, QueueDepth: 2,
	})
	const warmup, offered, senders = 16, 320, 16
	// Only the motion stub runs, so one body serves every request.
	req, err := client.BuildRequest(uploadFor(t, 900, 16))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// One kept-alive connection per sender; no client retries, so a shed
	// request surfaces as exactly one 429.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: senders}}
	defer hc.CloseIdleConnections()
	post := func() (code int, retryAfter bool, d time.Duration, err error) {
		t0 := time.Now()
		resp, err := hc.Post(ts.URL+"/v1/trajectory", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, false, 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After") != "", time.Since(t0), err
	}
	p99 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)*99+99)/100-1]
	}

	// Uncontended baseline: one request at a time never queues.
	var calm []time.Duration
	for i := 0; i < warmup; i++ {
		code, _, d, err := post()
		if err != nil || code != http.StatusOK {
			t.Fatalf("warmup upload: code %d, err %v", code, err)
		}
		calm = append(calm, d)
	}

	var mu sync.Mutex
	var admitted []time.Duration
	var shed int
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < offered; i += senders {
				code, retryAfter, d, err := post()
				mu.Lock()
				switch {
				case err != nil:
					t.Errorf("upload %d: %v", i, err)
				case code == http.StatusOK:
					admitted = append(admitted, d)
				case code == http.StatusTooManyRequests && retryAfter:
					shed++
				default:
					t.Errorf("upload %d: status %d (Retry-After present: %v), want 200 or 429 with Retry-After", i, code, retryAfter)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if shed == 0 || len(admitted) == 0 {
		t.Fatalf("8x overload: %d admitted, %d shed", len(admitted), shed)
	}
	a := svc.Stats().Admission
	if a == nil {
		t.Fatal("stats missing admission section")
	}
	serverShed := a.ShedQueueFull + a.ShedDeadline + a.DeadlineExceeded
	if a.Admitted+serverShed != warmup+offered {
		t.Fatalf("admission counters cover %d of %d requests: %+v", a.Admitted+serverShed, warmup+offered, a)
	}
	if a.Admitted != int64(warmup+len(admitted)) || serverShed != int64(shed) {
		t.Fatalf("server admitted %d and shed %d, clients saw %d and %d",
			a.Admitted, serverShed, warmup+len(admitted), shed)
	}
	return p99(calm), p99(admitted)
}

// flakyFront simulates an unreliable path to the service: it fails the
// first `fail` attempts — either rejecting up front with the given status
// or processing the request and then dropping the response — and passes
// everything after through untouched.
type flakyFront struct {
	inner    http.Handler
	fail     int32 // remaining failures
	status   int   // reject with this status; 0 = process then drop response
	attempts atomic.Int32
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.attempts.Add(1)
	if atomic.AddInt32(&f.fail, -1) >= 0 {
		if f.status != 0 {
			w.WriteHeader(f.status)
			return
		}
		// Process for real, then lose the answer on the way back: the
		// server has recorded a verdict the client never saw.
		f.inner.ServeHTTP(httptest.NewRecorder(), r)
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// fastRetry is a test retry policy with millisecond backoff so injected
// failures don't slow the suite down.
func fastRetry() resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: 5,
		Base:        time.Millisecond,
		Max:         5 * time.Millisecond,
		Budget:      time.Second,
	}
}

// TestUploadRetriesInjectedRejections pins the retrying client against
// injected 429 and 503 rejections: the upload converges to a verdict and
// the server records it exactly once.
func TestUploadRetriesInjectedRejections(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		svc, err := New(Config{Projection: geo.NewProjection(_origin)})
		if err != nil {
			t.Fatal(err)
		}
		front := &flakyFront{inner: svc.Handler(), fail: 2, status: status}
		ts := httptest.NewServer(front)
		client := NewRetryingClient(ts.URL, geo.NewProjection(_origin))
		client.Retry = fastRetry()

		v, err := client.Upload(realisticUpload(t, 71))
		if err != nil {
			t.Fatalf("status %d: upload did not converge: %v", status, err)
		}
		if !v.Accepted {
			t.Fatalf("status %d: verdict = %+v", status, v)
		}
		if got := front.attempts.Load(); got != 3 {
			t.Fatalf("status %d: %d wire attempts, want 3", status, got)
		}
		if st := svc.Stats(); st.Accepted+st.Rejected != 1 {
			t.Fatalf("status %d: server recorded %d verdicts, want 1", status, st.Accepted+st.Rejected)
		}
		ts.Close()
	}
}

// TestRetryAfterDroppedResponseConvergesOnce is the idempotency e2e: the
// first attempt is processed but its response is lost, so the retry hits
// the dedup cache and replays the recorded verdict — one logical upload,
// two wire attempts, exactly one recorded verdict and one ingestion.
func TestRetryAfterDroppedResponseConvergesOnce(t *testing.T) {
	svc, err := New(Config{Projection: geo.NewProjection(_origin)})
	if err != nil {
		t.Fatal(err)
	}
	front := &flakyFront{inner: svc.Handler(), fail: 1, status: 0}
	ts := httptest.NewServer(front)
	defer ts.Close()
	client := NewRetryingClient(ts.URL, geo.NewProjection(_origin))
	client.Retry = fastRetry()

	v, err := client.Upload(realisticUpload(t, 72))
	if err != nil {
		t.Fatalf("upload did not converge: %v", err)
	}
	if !v.Accepted {
		t.Fatalf("verdict = %+v", v)
	}
	st := svc.Stats()
	if st.Accepted+st.Rejected != 1 || st.History != 1 {
		t.Fatalf("server recorded %d verdicts (%d history), want exactly 1",
			st.Accepted+st.Rejected, st.History)
	}
	if st.Dedup == nil || st.Dedup.Hits != 1 {
		t.Fatalf("dedup stats = %+v, want 1 replay hit", st.Dedup)
	}
	if got := front.attempts.Load(); got != 2 {
		t.Fatalf("%d wire attempts, want 2", got)
	}
}

// TestIdempotencyKeyReplay exercises the raw header contract: a second
// POST with the same Idempotency-Key answers 200 with the replay marker
// and records nothing new.
func TestIdempotencyKeyReplay(t *testing.T) {
	svc, ts, client := newTestService(t, Config{})
	req, err := client.BuildRequest(realisticUpload(t, 73))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func() *http.Response {
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/trajectory", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Idempotency-Key", "fixed-key-1")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := post()
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK || r1.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first post: %d, replayed=%q", r1.StatusCode, r1.Header.Get("Idempotency-Replayed"))
	}
	r2 := post()
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || r2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("second post: %d, replayed=%q", r2.StatusCode, r2.Header.Get("Idempotency-Replayed"))
	}
	if st := svc.Stats(); st.Accepted+st.Rejected != 1 {
		t.Fatalf("recorded %d verdicts, want 1", st.Accepted+st.Rejected)
	}
}

// TestBreakerDegradesAndHeals drives the full fail-closed cycle at the
// server-package level: a wedged disk trips the persistence breaker,
// health flips to degraded and uploads shed with 503 + Retry-After, and
// after the disk heals a probe compaction closes the breaker and uploads
// are acknowledged durable again.
func TestBreakerDegradesAndHeals(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	ffs := faultfs.New(fsx.OS, faultfs.Options{})
	p, err := OpenPersistence(t.TempDir(), PersistOptions{
		FS: ffs, SyncInterval: -1,
		Breaker: &resilience.BreakerConfig{Cooldown: cooldown},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, _, client := newTestService(t, Config{Persist: p, IngestAccepted: true})

	if _, err := client.Upload(realisticUpload(t, 81)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("healthy flush: %v", err)
	}

	ffs.Wedge()
	// The next upload may still be acked at the HTTP layer (the append
	// fails asynchronously); its durability barrier must refuse, and the
	// breaker must trip.
	if _, err := client.Upload(realisticUpload(t, 82)); err != nil {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Fatalf("wedged upload: %v", err)
		}
	} else if err := p.Flush(); err == nil {
		t.Fatal("flush on wedged disk returned nil")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := client.FetchHealth()
		if err != nil {
			t.Fatal(err)
		}
		if h.Degraded {
			if h.Ready || h.Status != "degraded" {
				t.Fatalf("degraded health = %+v", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never reported degraded")
		}
		time.Sleep(cooldown / 4)
	}
	// Degraded uploads are refused outright: fail closed, typed, retryable.
	_, err = client.Upload(realisticUpload(t, 83))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded upload error = %v", err)
	}
	if !se.Retryable() || se.RetryAfter <= 0 {
		t.Fatalf("degraded shed not retryable with hint: %+v", se)
	}

	ffs.Heal()
	for {
		h, err := client.FetchHealth()
		if err != nil {
			t.Fatal(err)
		}
		if h.Ready && !h.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never recovered after heal")
		}
		time.Sleep(cooldown / 4)
	}
	if _, err := client.Upload(realisticUpload(t, 84)); err != nil {
		t.Fatalf("post-heal upload: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("post-heal flush: %v", err)
	}
	st := svc.Stats()
	if st.DegradedRejects < 1 {
		t.Fatalf("degraded_rejects = %d, want >= 1", st.DegradedRejects)
	}
	ps := st.Persistence
	if ps == nil || ps.Breaker == nil {
		t.Fatal("stats missing breaker section")
	}
	if ps.Breaker.Opens < 1 || ps.Breaker.Closes < 1 || ps.Breaker.State != "closed" {
		t.Fatalf("breaker never cycled: %+v", ps.Breaker)
	}
	if ps.Degraded || ps.UnhealedErrors != 0 {
		t.Fatalf("persistence still degraded after heal: %+v", ps)
	}
}
