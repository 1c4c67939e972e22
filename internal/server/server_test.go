package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/mobility"
	"trajforge/internal/roadnet"
	"trajforge/internal/rssimap"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

var (
	_origin = geo.LatLon{Lat: 32.06, Lon: 118.79}
	_t0     = time.Date(2022, 7, 1, 9, 0, 0, 0, time.UTC)
)

// fixedMotion is a stub detector with a programmable answer and, when delay
// is set, a blocking service time.
type fixedMotion struct {
	prob  float64
	delay time.Duration
}

func (f *fixedMotion) Name() string { return "stub" }
func (f *fixedMotion) ProbReal(t *trajectory.T) float64 {
	time.Sleep(f.delay)
	return f.prob
}
func (f *fixedMotion) set(p float64)                        { f.prob = p }
func realisticUpload(t *testing.T, seed int64) *wifi.Upload { return uploadFor(t, seed, 30) }
func uploadFor(t testing.TB, seed int64, n int) *wifi.Upload {
	t.Helper()
	tk, err := mobility.Simulate(rand.New(rand.NewSource(seed)), mobility.Options{
		Route:     []geo.Point{{X: 0, Y: 0}, {X: 300, Y: 0}},
		Mode:      trajectory.ModeWalking,
		Start:     _t0,
		Interval:  time.Second,
		MaxPoints: n,
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

// soakUploads builds the mix the concurrent soaks send: n walks spread along
// the fixture corridor, so honest ones are not replays of each other, every
// third one forged with scans no stored record resembles.
func soakUploads(t *testing.T, seed int64, n, points int) (uploads []*wifi.Upload, forged []bool) {
	t.Helper()
	uploads, forged = make([]*wifi.Upload, n), make([]bool, n)
	for i := range uploads {
		u := uploadFor(t, seed+int64(i), points)
		u.Traj.ID = fmt.Sprintf("soak-%d", i)
		for j := range u.Traj.Points {
			u.Traj.Points[j].Pos.X += float64(i * 37 % 240)
		}
		if forged[i] = i%3 == 2; forged[i] {
			for j := range u.Scans {
				u.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
			}
		}
		uploads[i] = u
	}
	return uploads, forged
}

// soakSend has workers goroutines send items lo..hi-1, worker g taking the
// indices congruent to g, stores each verdict at its index, and fails the
// test once all have returned if any send reported an error.
func soakSend(t *testing.T, verdicts []*Verdict, lo, hi, workers int, send func(i int) (*Verdict, error)) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := lo + g; i < hi; i += workers {
				var err error
				if verdicts[i], err = send(i); err != nil {
					t.Errorf("upload %d: %v", i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// tallySoak counts the accepted verdicts, and how many real uploads were
// accepted and forged ones rejected.
func tallySoak(verdicts []*Verdict, forged []bool) (accepted, realAccepted, forgedRejected int) {
	for i, v := range verdicts {
		switch {
		case v.Accepted:
			accepted++
			if !forged[i] {
				realAccepted++
			}
		case forged[i]:
			forgedRejected++
		}
	}
	return accepted, realAccepted, forgedRejected
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server, *Client) {
	t.Helper()
	if cfg.Projection == nil {
		cfg.Projection = geo.NewProjection(_origin)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, NewClient(ts.URL, cfg.Projection)
}

func TestNewRequiresProjection(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil projection must error")
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts, client := newTestService(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	st, err := client.FetchStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 0 || st.Rejected != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
}

func TestUploadAcceptedWithoutCheckers(t *testing.T) {
	svc, _, client := newTestService(t, Config{})
	v, err := client.Upload(realisticUpload(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted {
		t.Fatalf("verdict = %+v", v)
	}
	for stage, status := range v.Checks {
		if status != "skipped" {
			t.Fatalf("stage %s = %s, want skipped", stage, status)
		}
	}
	if st := svc.Stats(); st.Accepted != 1 || st.History != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMotionCheckRejects(t *testing.T) {
	stub := &fixedMotion{prob: 0.2}
	svc, _, client := newTestService(t, Config{Motion: stub})
	v, err := client.Upload(realisticUpload(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["motion"] != "fail" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.MotionProbReal == nil || *v.MotionProbReal != 0.2 {
		t.Fatalf("prob = %v", v.MotionProbReal)
	}
	stub.set(0.9)
	v, err = client.Upload(realisticUpload(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Checks["motion"] != "pass" {
		t.Fatalf("verdict = %+v", v)
	}
	if st := svc.Stats(); st.Accepted != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplayCheckRejectsSecondUpload(t *testing.T) {
	rc, err := detect.NewReplayChecker(1.2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestService(t, Config{Replay: rc})
	u := realisticUpload(t, 4)
	v, err := client.Upload(u)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted {
		t.Fatalf("first upload rejected: %+v", v)
	}
	// Uploading a barely-perturbed copy must now be flagged as a replay.
	replay := u.Traj.Clone()
	rng := rand.New(rand.NewSource(5))
	for i := range replay.Points {
		replay.Points[i].Pos.X += rng.NormFloat64() * 0.3
	}
	v, err = client.Upload(&wifi.Upload{Traj: replay, Scans: u.Scans})
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["replay"] != "fail" {
		t.Fatalf("replay accepted: %+v", v)
	}
}

func TestUploadValidation(t *testing.T) {
	_, ts, _ := newTestService(t, Config{MaxPoints: 10})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/trajectory", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{malformed"); code != http.StatusBadRequest {
		t.Fatalf("malformed = %d", code)
	}
	if code := post(`{"points":[{"lat":0,"lon":0,"time":0}]}`); code != http.StatusBadRequest {
		t.Fatalf("single point = %d", code)
	}
	if code := post(`{"points":[{"lat":999,"lon":0,"time":0},{"lat":0,"lon":0,"time":1000}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad coordinate = %d", code)
	}
	if code := post(`{"mode":"hover","points":[{"lat":0,"lon":0,"time":0},{"lat":0,"lon":0,"time":1000}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad mode = %d", code)
	}
	// Too many points.
	var b bytes.Buffer
	b.WriteString(`{"points":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"lat":32,"lon":118,"time":%d}`, i*1000)
	}
	b.WriteString(`]}`)
	if code := post(b.String()); code != http.StatusBadRequest {
		t.Fatalf("oversized = %d", code)
	}
	// Non-monotonic timestamps.
	if code := post(`{"points":[{"lat":32,"lon":118,"time":1000},{"lat":32,"lon":118,"time":0}]}`); code != http.StatusBadRequest {
		t.Fatalf("non-monotonic = %d", code)
	}
}

func TestScansRequiredWhenConfigured(t *testing.T) {
	_, _, client := newTestService(t, Config{RequireScans: true})
	u := realisticUpload(t, 6)
	for i := range u.Scans {
		u.Scans[i] = wifi.Scan{}
	}
	if _, err := client.Upload(u); err == nil {
		t.Fatal("scan-less upload must be rejected")
	}
}

func TestMethodRestrictions(t *testing.T) {
	_, ts, _ := newTestService(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trajectory")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/trajectory = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d", resp.StatusCode)
	}
}

// TestConcurrentUploads sends a mixed real/forged load from concurrent
// clients; under -race it is the concurrency check for the whole batch path.
// The durable case adds what a production provider runs behind the replay
// gate: the WAL appender, a trained WiFi detector and accepted-upload
// ingestion into the store the detector is reading.
func TestConcurrentUploads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"durable", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rc, err := detect.NewReplayChecker(1.2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Replay: rc}
			if tc.durable {
				store, err := rssimap.NewStore(rssimap.DefaultConfig(), persistRecords(rand.New(rand.NewSource(127)), 400))
				if err != nil {
					t.Fatal(err)
				}
				cfg.WiFi, cfg.IngestAccepted = trainTestDetector(t, store), true
				if cfg.Persist, err = OpenPersistence(t.TempDir(), PersistOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			svc, _, client := newTestService(t, cfg)
			const n = 48
			uploads, forged := soakUploads(t, 100, n, 20)
			verdicts := make([]*Verdict, n)
			soakSend(t, verdicts, 0, n, n, func(i int) (*Verdict, error) { return client.Upload(uploads[i]) })
			accepted, realAccepted, forgedRejected := tallySoak(verdicts, forged)
			st := svc.Stats()
			if st.Accepted != accepted || st.Rejected != n-accepted {
				t.Fatalf("server counted %d/%d, clients %d/%d", st.Accepted, st.Rejected, accepted, n-accepted)
			}
			// Every upload ran the replay stage exactly once, concurrently; the
			// atomic stage clocks must agree.
			if got := st.Stages["replay"].Count; got != n {
				t.Fatalf("replay stage count = %d, want %d", got, n)
			}
			if tc.durable {
				if realAccepted == 0 || forgedRejected == 0 {
					t.Fatalf("degenerate mix: %d real accepted, %d forged rejected", realAccepted, forgedRejected)
				}
				if err := svc.Close(); err != nil {
					t.Fatalf("close after soak: %v", err)
				}
			}
		})
	}
}

func TestStageTimingsAccumulate(t *testing.T) {
	stub := &fixedMotion{prob: 0.9}
	svc, _, client := newTestService(t, Config{Motion: stub, Rules: detect.NewRuleChecker()})
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := client.Upload(realisticUpload(t, int64(300+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	for _, stage := range []string{"rules", "motion"} {
		sg := st.Stages[stage]
		if sg.Count != n {
			t.Fatalf("stage %s count = %d, want %d", stage, sg.Count, n)
		}
		if sg.TotalMicros < 0 {
			t.Fatalf("stage %s total = %d", stage, sg.TotalMicros)
		}
	}
	for _, stage := range []string{"route", "replay", "wifi"} {
		if sg := st.Stages[stage]; sg.Count != 0 {
			t.Fatalf("skipped stage %s count = %d, want 0", stage, sg.Count)
		}
	}
}

func TestVerdictJSONShape(t *testing.T) {
	v := Verdict{Accepted: true, Checks: map[string]string{"replay": "pass"}}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"accepted":true`)) {
		t.Fatalf("verdict JSON = %s", data)
	}
}

func TestRouteCheckRejectsOffRoad(t *testing.T) {
	g, err := roadnet.Generate(rand.New(rand.NewSource(9)), roadnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := detect.NewRouteChecker(g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestService(t, Config{Route: rc})

	// On-road upload: follows an actual route.
	onRoad := realisticUpload(t, 31)
	v, err := client.Upload(onRoad)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture route (0,0)->(300,0) may not align with this graph, so
	// only assert the check ran.
	if v.Checks["route"] == "skipped" {
		t.Fatal("route check did not run")
	}

	// Far off-road upload must fail the route check.
	off := realisticUpload(t, 32)
	for i := range off.Traj.Points {
		off.Traj.Points[i].Pos.X -= 2000
		off.Traj.Points[i].Pos.Y -= 2000
	}
	v, err = client.Upload(off)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["route"] != "fail" {
		t.Fatalf("off-road upload verdict = %+v", v)
	}
}

func TestWiFiCheckInternalErrorSurfacesAs500(t *testing.T) {
	// A detector with a broken feature config makes the WiFi stage error;
	// the server must answer 500, not crash or mislabel.
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	det := &detect.WiFiDetector{
		Store:    store,
		Model:    nil,                                   // never reached
		Features: rssimap.FeatureConfig{R: -1, TopK: 3}, // invalid radius
	}
	svc, ts, client := newTestService(t, Config{WiFi: det})
	_ = ts
	u := realisticUpload(t, 41)
	_, err = client.Upload(u)
	if err == nil {
		t.Fatal("broken WiFi stage must surface an error")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("error = %v, want StatusError 500", err)
	}
	if se.Retryable() {
		t.Fatal("a deterministic pipeline failure must not be retryable")
	}
	// The failure must also land on the observable counter.
	if st := svc.Stats(); st.InternalErrors != 1 {
		t.Fatalf("internal_errors = %d, want 1", st.InternalErrors)
	}
}

func TestRulesCheckRejectsTeleport(t *testing.T) {
	_, _, client := newTestService(t, Config{Rules: detect.NewRuleChecker()})
	u := realisticUpload(t, 51)
	// Clean upload passes.
	v, err := client.Upload(u)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Checks["rules"] != "pass" {
		t.Fatalf("clean upload verdict = %+v", v)
	}
	// Inject a teleport.
	bad := uploadFor(t, 52, 30)
	bad.Traj.Points[10].Pos.X += 5000
	v, err = client.Upload(bad)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Checks["rules"] != "fail" {
		t.Fatalf("teleport verdict = %+v", v)
	}
}

// postJSON posts a raw body to /v1/trajectory and returns code + body.
func postJSON(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/trajectory", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestDecodeErrorBodies pins down both the status code and the error body
// of every decode-stage rejection, so clients can rely on the messages.
func TestDecodeErrorBodies(t *testing.T) {
	_, ts, _ := newTestService(t, Config{MaxPoints: 5, RequireScans: true})

	code, body := postJSON(t, ts, `{"points":[{"lat":32,"lon":118,"time":0,"scan":[{"mac":"a","rssi":-50}]}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "2 points, got 1") {
		t.Fatalf("too few points = %d %q", code, body)
	}

	var b bytes.Buffer
	b.WriteString(`{"points":[`)
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"lat":32,"lon":118,"time":%d,"scan":[{"mac":"a","rssi":-50}]}`, i*1000)
	}
	b.WriteString(`]}`)
	code, body = postJSON(t, ts, b.String())
	if code != http.StatusBadRequest || !strings.Contains(body, "limit 5") {
		t.Fatalf("over MaxPoints = %d %q", code, body)
	}

	code, body = postJSON(t, ts,
		`{"points":[{"lat":91,"lon":118,"time":0},{"lat":32,"lon":118,"time":1000}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "invalid coordinate") {
		t.Fatalf("invalid coordinate = %d %q", code, body)
	}

	code, body = postJSON(t, ts,
		`{"points":[{"lat":32,"lon":118,"time":0},{"lat":32,"lon":118,"time":1000}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "no WiFi scans") {
		t.Fatalf("missing scans = %d %q", code, body)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	_, ts, _ := newTestService(t, Config{})
	// A single >16 MiB JSON string forces the decoder through the
	// MaxBytesReader limit before it can finish the token.
	body := `{"id":"` + strings.Repeat("x", 17<<20) + `"}`
	code, resp := postJSON(t, ts, body)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(resp, "exceeds") {
		t.Fatalf("oversized body = %d %q", code, resp)
	}
}

func TestHealthRejectsNonGET(t *testing.T) {
	_, ts, _ := newTestService(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/health", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/health = %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/health", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/health = %d", resp.StatusCode)
	}
}
