package server

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"trajforge/internal/binenc"
	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
)

// wireRequestFor builds the wire form of a realistic upload through the
// client encoder.
func wireRequestFor(t *testing.T, seed int64, n int) *UploadRequest {
	t.Helper()
	c := NewClient("http://unused", geo.NewProjection(_origin))
	req, err := c.BuildRequest(uploadFor(t, seed, n))
	if err != nil {
		t.Fatal(err)
	}
	req.ID = "traj-42"
	return req
}

// TestBinaryUploadRoundTrip pins the codec's two identities: parse(encode)
// reproduces the request exactly (float bits included), and encode(parse)
// reproduces the frame byte for byte — the canonical-encoding property the
// fuzzer leans on.
func TestBinaryUploadRoundTrip(t *testing.T) {
	req := wireRequestFor(t, 21, 25)
	req.Mode = "walking"
	// Exercise awkward float bits: negative zero, subnormals, NaN payloads
	// survive the wire untouched (validity is the decoder's concern).
	req.Points[0].Lat = math.Copysign(0, -1)
	req.Points[1].Lon = math.SmallestNonzeroFloat64
	frame, err := EncodeUploadBinary(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseUploadBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || got.Mode != req.Mode || len(got.Points) != len(req.Points) {
		t.Fatalf("header roundtrip: got %q/%q/%d, want %q/%q/%d",
			got.ID, got.Mode, len(got.Points), req.ID, req.Mode, len(req.Points))
	}
	for i := range req.Points {
		w, g := req.Points[i], got.Points[i]
		if math.Float64bits(w.Lat) != math.Float64bits(g.Lat) ||
			math.Float64bits(w.Lon) != math.Float64bits(g.Lon) || w.Time != g.Time {
			t.Fatalf("point %d: %+v != %+v", i, g, w)
		}
		if !reflect.DeepEqual(w.Scan, g.Scan) {
			t.Fatalf("point %d scans: %+v != %+v", i, g.Scan, w.Scan)
		}
	}
	again, err := EncodeUploadBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("encode(parse(frame)) differs from frame")
	}
}

// TestBinarySessionAppendRoundTrip is the same contract for the append
// frame kind.
func TestBinarySessionAppendRoundTrip(t *testing.T) {
	c := NewClient("http://unused", geo.NewProjection(_origin))
	u := uploadFor(t, 33, 20)
	req, err := c.BuildSessionAppend("sess-1", 3, u, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeSessionAppendBinary(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSessionAppendBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.SessionID != req.SessionID || got.Seq != req.Seq || len(got.Points) != len(req.Points) {
		t.Fatalf("append roundtrip: %+v vs %+v", got, req)
	}
	again, err := EncodeSessionAppendBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("encode(parse(frame)) differs from frame")
	}
}

// TestBinaryTypedErrors exercises every typed decode failure.
func TestBinaryTypedErrors(t *testing.T) {
	frame, err := EncodeUploadBinary(wireRequestFor(t, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail with a typed error, never panic.
	for n := range frame {
		_, err := ParseUploadBinary(frame[:n])
		if err == nil {
			t.Fatalf("prefix of %d bytes parsed cleanly", n)
		}
		if !errors.Is(err, ErrWireTruncated) && !errors.Is(err, ErrWireOversized) {
			t.Fatalf("prefix of %d bytes: untyped error %v", n, err)
		}
	}

	bad := append([]byte(nil), frame...)
	bad[0] = 9
	if _, err := ParseUploadBinary(bad); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version 9: %v", err)
	}

	bad = append([]byte(nil), frame...)
	bad[1] = wireKindSessionAppend
	if _, err := ParseUploadBinary(bad); !errors.Is(err, ErrWireKind) {
		t.Fatalf("wrong kind: %v", err)
	}
	if _, err := ParseSessionAppendBinary(frame); !errors.Is(err, ErrWireKind) {
		t.Fatalf("upload frame on append endpoint: %v", err)
	}

	if _, err := ParseUploadBinary(append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrWireOversized) {
		t.Fatalf("trailing byte: %v", err)
	}

	bad = append([]byte(nil), frame...)
	bad[6+2+len("traj-42")] = 7 // mode byte
	if _, err := ParseUploadBinary(bad); !errors.Is(err, ErrWireValue) {
		t.Fatalf("unknown mode byte: %v", err)
	}

	// A frame whose point count cannot fit its bytes is oversized, and the
	// claims check must refuse before allocating anything huge.
	huge := make([]byte, 6+2+1+4)
	huge[0], huge[1] = wireVersion, wireKindUpload
	huge[6], huge[7] = 0, 0 // id len 0
	huge[8] = 0             // mode
	huge[9], huge[10], huge[11], huge[12] = 0xff, 0xff, 0xff, 0xff
	binenc.FinishFrame(huge)
	if _, err := ParseUploadBinary(huge); !errors.Is(err, ErrWireOversized) {
		t.Fatalf("4G points claim: %v", err)
	}
}

// TestBinaryUploadEndToEndBitIdentical is the negotiation contract: two
// identically-built providers, one fed JSON and one fed the binary frame
// of the same logical upload, must return byte-identical verdict JSON —
// probability bits included — and land identical stage counts.
func TestBinaryUploadEndToEndBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	records := persistRecords(rng, 400)
	build := func() (*Service, *Client) {
		store, err := rssimap.NewStore(rssimap.DefaultConfig(), records)
		if err != nil {
			t.Fatal(err)
		}
		det := trainTestDetector(t, store)
		rc, err := detect.NewReplayChecker(1.2)
		if err != nil {
			t.Fatal(err)
		}
		svc, ts, client := newTestService(t, Config{
			Rules:  detect.NewRuleChecker(),
			Replay: rc,
			Motion: &fixedMotion{prob: 0.9},
			WiFi:   det,
		})
		_ = ts
		return svc, client
	}
	jsonSvc, jsonClient := build()
	binSvc, binClient := build()
	binClient.Binary = true

	for seed := int64(900); seed < 905; seed++ {
		u := uploadFor(t, seed, 25)
		vj, err := jsonClient.Upload(u)
		if err != nil {
			t.Fatalf("seed %d json: %v", seed, err)
		}
		vb, err := binClient.Upload(u)
		if err != nil {
			t.Fatalf("seed %d binary: %v", seed, err)
		}
		if !reflect.DeepEqual(vj.Checks, vb.Checks) || vj.Accepted != vb.Accepted || vj.Reason != vb.Reason {
			t.Fatalf("seed %d verdicts diverge: %+v vs %+v", seed, vj, vb)
		}
		if (vj.WiFiProbFake == nil) != (vb.WiFiProbFake == nil) {
			t.Fatalf("seed %d: wifi prob presence diverges", seed)
		}
		if vj.WiFiProbFake != nil &&
			math.Float64bits(*vj.WiFiProbFake) != math.Float64bits(*vb.WiFiProbFake) {
			t.Fatalf("seed %d: wifi prob %x != %x", seed,
				math.Float64bits(*vj.WiFiProbFake), math.Float64bits(*vb.WiFiProbFake))
		}
	}

	js, bs := jsonSvc.Stats(), binSvc.Stats()
	if js.Accepted != bs.Accepted || js.Rejected != bs.Rejected {
		t.Fatalf("counters diverge: %d/%d vs %d/%d", js.Accepted, js.Rejected, bs.Accepted, bs.Rejected)
	}
	for _, stage := range stageNames {
		if js.Stages[stage].Count != bs.Stages[stage].Count {
			t.Fatalf("stage %s count %d != %d", stage, js.Stages[stage].Count, bs.Stages[stage].Count)
		}
	}
}

// TestBinarySessionAppendEndToEnd drives a streaming session over the
// binary wire and closes it; the verdict must match the batch JSON upload
// of the same trajectory on an identically-built service.
func TestBinarySessionAppendEndToEnd(t *testing.T) {
	newSvc := func() *Client {
		_, _, client := newTestService(t, Config{
			Rules:  detect.NewRuleChecker(),
			Stream: &stream.Config{},
		})
		return client
	}
	u := uploadFor(t, 1201, 24)

	jc := newSvc()
	vj, err := jc.Upload(u)
	if err != nil {
		t.Fatal(err)
	}

	bc := newSvc()
	bc.Binary = true
	id, err := bc.OpenSession("", "walking")
	if err != nil {
		t.Fatal(err)
	}
	for seq, lo := 0, 0; lo < u.Traj.Len(); seq, lo = seq+1, lo+8 {
		hi := lo + 8
		if hi > u.Traj.Len() {
			hi = u.Traj.Len()
		}
		if _, err := bc.AppendSession(id, seq, u, lo, hi); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	vb, err := bc.CloseSession(id)
	if err != nil {
		t.Fatal(err)
	}
	if vj.Accepted != vb.Accepted {
		t.Fatalf("batch JSON accepted=%v, binary stream accepted=%v", vj.Accepted, vb.Accepted)
	}
}

// FuzzBinaryCodec throws arbitrary bytes at both frame parsers: they must
// never panic, and any frame a parser accepts must re-encode to the exact
// input bytes (the canonical-encoding property).
func FuzzBinaryCodec(f *testing.F) {
	c := NewClient("http://unused", geo.NewProjection(_origin))
	u := uploadFor(f, 7, 12)
	req, err := c.BuildRequest(u)
	if err != nil {
		f.Fatal(err)
	}
	req.ID, req.Mode = "fuzz-seed", "cycling"
	seed, err := EncodeUploadBinary(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	req.Contributor = "device-fuzz"
	cseed, err := EncodeUploadBinary(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cseed)
	req.Contributor = ""
	areq, err := c.BuildSessionAppend("sess-fuzz", 1, u, 0, 6)
	if err != nil {
		f.Fatal(err)
	}
	aseed, err := EncodeSessionAppendBinary(areq)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(aseed)
	f.Add([]byte{})
	f.Add([]byte{wireVersion, wireKindUpload})
	f.Add(seed[:len(seed)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if up, err := ParseUploadBinary(data); err == nil {
			enc, err := EncodeUploadBinary(up)
			if err != nil {
				t.Fatalf("accepted frame refuses to re-encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("upload roundtrip: % x != % x", enc, data)
			}
		}
		if ap, err := ParseSessionAppendBinary(data); err == nil {
			enc, err := EncodeSessionAppendBinary(ap)
			if err != nil {
				t.Fatalf("accepted append refuses to re-encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("append roundtrip: % x != % x", enc, data)
			}
		}
	})
}

// TestRegenBinaryCodecCorpus rewrites the checked-in fuzz corpus from the
// current encoders. Skipped unless REGEN_CORPUS=1 — run it after a wire
// format change so the corpus keeps seeding real frames.
func TestRegenBinaryCodecCorpus(t *testing.T) {
	if os.Getenv("REGEN_CORPUS") == "" {
		t.Skip("set REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzBinaryCodec")
	}
	c := NewClient("http://unused", geo.NewProjection(_origin))
	u := uploadFor(t, 7, 12)
	req, err := c.BuildRequest(u)
	if err != nil {
		t.Fatal(err)
	}
	req.ID, req.Mode = "corpus-upload", "driving"
	upFrame, err := EncodeUploadBinary(req)
	if err != nil {
		t.Fatal(err)
	}
	areq, err := c.BuildSessionAppend("corpus-session", 2, u, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	apFrame, err := EncodeSessionAppendBinary(areq)
	if err != nil {
		t.Fatal(err)
	}
	noScans := &UploadRequest{ID: "", Points: []uploadPoint{
		{Lat: 32.06, Lon: 118.79, Time: 1656666000000},
		{Lat: -0.0, Lon: math.Inf(1), Time: 1656666001000},
	}}
	nsFrame, err := EncodeUploadBinary(noScans)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), upFrame...)
	corrupt[0] = 99
	req.Contributor = "corpus-device-7"
	contribFrame, err := EncodeUploadBinary(req)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string][]byte{
		"seed-upload":             upFrame,
		"seed-upload-contributor": contribFrame,
		"seed-session-append":     apFrame,
		"seed-upload-no-scans":    nsFrame,
		"seed-truncated":          upFrame[:len(upFrame)/3],
		"seed-bad-version":        corrupt,
		"seed-header-only":        {wireVersion, wireKindUpload, 0, 0, 0, 0},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
