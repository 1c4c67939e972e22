package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"trajforge/internal/detect"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
	"trajforge/internal/wifi"
)

// TestUnencodableReadingsRefusedAtTheEdge: a reading no codec can carry (an
// RSSI outside int16, a MAC over 255 bytes) is a 400 on the batch and the
// session-append endpoints, and so is an identity no codec can carry (an
// id over 65535 bytes, a contributor over 255) on the batch and
// session-open endpoints — in JSON, the wire form that can express one.
// Before the edge checks such an upload could be accepted, after which its
// WAL append failed and walked the persistence breaker open for everyone,
// or the cluster record codec dropped the whole accepted batch.
func TestUnencodableReadingsRefusedAtTheEdge(t *testing.T) {
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), persistRecords(rand.New(rand.NewSource(151)), 200))
	if err != nil {
		t.Fatal(err)
	}
	det := trainTestDetector(t, store)
	p, err := OpenPersistence(t.TempDir(), PersistOptions{
		SyncInterval: -1, Breaker: &resilience.BreakerConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts, client := newTestService(t, Config{
		Motion:  &fixedMotion{prob: 0.9},
		WiFi:    &detect.WiFiDetector{Store: store, Model: det.Model, Features: det.Features},
		Stream:  &stream.Config{DisableEarlyExit: true},
		Persist: p, IngestAccepted: true,
	})
	t.Cleanup(func() { svc.Close() })
	records := store.Len()

	post := func(path string, body any) (int, string) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
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

	sessID, err := client.OpenSession("edge", "walking")
	if err != nil {
		t.Fatal(err)
	}
	// Otherwise honest uploads: one extra reading per case, weak enough to
	// sit outside TopK so the detector never looks at it.
	cases := map[string]wifi.Observation{
		"rssi above int16": {MAC: "02:4e:00:00:00:01", RSSI: 65500},
		"rssi below int16": {MAC: "02:4e:00:00:00:02", RSSI: -40000},
		"mac of 300 bytes": {MAC: strings.Repeat("m", 300), RSSI: -95},
	}
	for name, obs := range cases {
		req, err := client.BuildRequest(uploadFor(t, 1500, 24))
		if err != nil {
			t.Fatal(err)
		}
		req.Points[7].Scan = append(req.Points[7].Scan, obs)
		if code, body := post("/v1/trajectory", req); code != http.StatusBadRequest || !strings.Contains(body, "point 7") {
			t.Errorf("%s on /v1/trajectory: %d %s", name, code, body)
		}
		app := &SessionAppendRequest{SessionID: sessID, Seq: 0, Points: req.Points[:12]}
		if code, body := post("/v1/session/append", app); code != http.StatusBadRequest || !strings.Contains(body, "point 7") {
			t.Errorf("%s on /v1/session/append: %d %s", name, code, body)
		}
	}
	for name, req := range map[string]UploadRequest{
		"id of 70000 bytes":          {ID: strings.Repeat("i", 70000)},
		"contributor of 300 bytes":   {Contributor: strings.Repeat("c", 300)},
		"contributor of 70000 bytes": {Contributor: strings.Repeat("c", 70000)},
	} {
		honest, err := client.BuildRequest(uploadFor(t, 1500, 24))
		if err != nil {
			t.Fatal(err)
		}
		req.Points = honest.Points
		if code, body := post("/v1/trajectory", req); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("%s on /v1/trajectory: %d %s", name, code, body)
		}
		open := SessionOpenRequest{ID: req.ID, Mode: "walking", Contributor: req.Contributor}
		if code, body := post("/v1/session/open", open); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("%s on /v1/session/open: %d %s", name, code, body)
		}
	}

	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Accepted != 0 || st.Rejected != 0 || store.Len() != records {
		t.Fatalf("refused uploads reached the pipeline: %d accepted, %d rejected, store %d → %d",
			st.Accepted, st.Rejected, records, store.Len())
	}
	// The session-open frame is the only thing the queue ever saw.
	if ps := st.Persistence; ps.WALFrames != 1 || ps.Errors != 0 || ps.Degraded || ps.Breaker.State != "closed" {
		t.Fatalf("persistence after refused uploads: %+v (breaker %+v)", ps, ps.Breaker)
	}
	if st.Sessions.Open != 1 {
		t.Fatalf("sessions: %+v", st.Sessions)
	}
	// The service still takes the same upload without the bad reading.
	if v, err := client.Upload(uploadFor(t, 1500, 24)); err != nil || !v.Accepted {
		t.Fatalf("honest upload after the refusals: %+v, %v", v, err)
	}
}

// TestAppendUploadRefusesUnencodableReadings: a programmatic caller that
// bypasses the HTTP edge cannot write an aliased frame either.
func TestAppendUploadRefusesUnencodableReadings(t *testing.T) {
	for _, obs := range []wifi.Observation{
		{MAC: "02:4e:00:00:00:01", RSSI: 65500},
		{MAC: strings.Repeat("m", 256), RSSI: -60},
	} {
		u := uploadFor(t, 1501, 6)
		u.Scans[2] = append(u.Scans[2], obs)
		if _, err := appendUpload(nil, u, 0); !errors.Is(err, ErrWireValue) {
			t.Errorf("appendUpload with %d-byte MAC, RSSI %d: %v", len(obs.MAC), obs.RSSI, err)
		}
	}
}
