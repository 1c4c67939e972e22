package server

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"trajforge/internal/geo"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// Golden vectors: the bytes PR 13's tree (the last commit with frameReader
// and wireReader) produced for fixed inputs. Every vector must still be what
// the encoder emits for that input, and must decode and re-encode to itself.
const (
	goldenUploadV2       = "02020800676f6c64656e2d310300000000000000000029400000000000000ac0156dd320f3a8fd160100000000002940000000000000008015376e5cf3a8fd1659f3f8c21f6ea501000000001000b0401566d6b5f3a8fd1602001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff00000200026170008000ff7f0b006465766963652d30303432000000000000c83f"
	goldenUploadV2Anon   = "02020800676f6c64656e2d310300000000000000000029400000000000000ac0156dd320f3a8fd160100000000002940000000000000008015376e5cf3a8fd1659f3f8c21f6ea501000000001000b0401566d6b5f3a8fd1602001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff00000200026170008000ff7f00000000000000000000"
	goldenSessionOpen    = "0600736573732d3703"
	goldenSessionOpenAs  = "0600736573732d37030b006465766963652d30303432"
	goldenVerdictAccept  = "0600736573732d3701000000000000c83f"
	goldenVerdictReject  = "0600736573732d3700"
	goldenSessionReject  = "0600736573732d37"
	goldenWireUpload     = "01019a0000000800676f6c64656e2d31020300000048e17a14ae074040c3f5285c8fb25d40800afdb88101000049e17a14ae074040000000000000e0bf680efdb8810100000e2db29def7f56c08716d9cef77f66404414fdb88101000002001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff00000200026170008000ff7f0b006465766963652d30303432"
	goldenWireUploadAnon = "01018d0000000800676f6c64656e2d31000300000048e17a14ae074040c3f5285c8fb25d40800afdb88101000049e17a14ae074040000000000000e0bf680efdb8810100000e2db29def7f56c08716d9cef77f66404414fdb88101000002001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff00000200026170008000ff7f"
	goldenWireAppend     = "01028e0000000600736573732d37030000000300000048e17a14ae074040c3f5285c8fb25d40800afdb88101000049e17a14ae074040000000000000e0bf680efdb8810100000e2db29def7f56c08716d9cef77f66404414fdb88101000002001130323a34653a30303a30303a30303a3037a5ff1130323a34653a30303a30303a30303a3038d4ff00000200026170008000ff7f"
)

func goldenScans() []wifi.Scan {
	return []wifi.Scan{
		{{MAC: "02:4e:00:00:00:07", RSSI: -91}, {MAC: "02:4e:00:00:00:08", RSSI: -44}},
		{},
		{{MAC: "ap", RSSI: math.MinInt16}, {MAC: "", RSSI: math.MaxInt16}},
	}
}

func goldenUpload(contributor string) *wifi.Upload {
	t0 := time.Date(2022, 7, 1, 9, 0, 0, 123456789, time.UTC)
	return &wifi.Upload{
		Traj: &trajectory.T{ID: "golden-1", Mode: trajectory.ModeCycling, Points: []trajectory.Point{
			{Pos: geo.Point{X: 12.5, Y: -3.25}, Time: t0},
			{Pos: geo.Point{X: math.Nextafter(12.5, 13), Y: math.Copysign(0, -1)}, Time: t0.Add(time.Second)},
			{Pos: geo.Point{X: 1e-300, Y: 4096.0625}, Time: t0.Add(2500 * time.Millisecond)},
		}},
		Scans:       goldenScans(),
		Contributor: contributor,
	}
}

func goldenWirePoints() []uploadPoint {
	scans := goldenScans()
	return []uploadPoint{
		{Lat: 32.06, Lon: 118.79, Time: 1656666000000, Scan: scans[0]},
		{Lat: math.Nextafter(32.06, 33), Lon: -0.5, Time: 1656666001000},
		{Lat: -89.999, Lon: 179.999, Time: 1656666002500, Scan: scans[2]},
	}
}

func checkGolden(t *testing.T, name, want string, got []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("%s:\n got %s\nwant %s", name, h, want)
	}
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenWALFrames(t *testing.T) {
	const pFake = 0.1875
	buf, err := appendUpload(nil, goldenUpload("device-0042"), pFake)
	checkGolden(t, "upload v2", goldenUploadV2, buf, err)
	buf, err = appendUpload(nil, goldenUpload(""), 0)
	checkGolden(t, "upload v2 anonymous", goldenUploadV2Anon, buf, err)

	for _, tc := range []struct {
		name, golden string
		pFake        float64
	}{
		{"upload v2", goldenUploadV2, pFake},
		{"upload v2 anonymous", goldenUploadV2Anon, 0},
	} {
		u, score, err := decodeUpload(unhex(t, tc.golden))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if math.Float64bits(score) != math.Float64bits(tc.pFake) {
			t.Fatalf("%s: pFake %v", tc.name, score)
		}
		for i, scan := range u.Scans {
			if scan == nil {
				t.Fatalf("%s: scan %d decoded nil; the WAL codec yields empty non-nil scans", tc.name, i)
			}
		}
		buf, err := appendUpload(nil, u, score)
		checkGolden(t, tc.name+" re-encoded", tc.golden, buf, err)
	}

	// Version 1 is version 2 without the trailing contributor block and
	// score: it must decode to the anonymous upload with a zero score.
	anon := unhex(t, goldenUploadV2Anon)
	v1 := append([]byte{1}, anon[1:len(anon)-10]...)
	u, score, err := decodeUpload(v1)
	if err != nil {
		t.Fatalf("upload v1: %v", err)
	}
	if u.Contributor != "" || score != 0 {
		t.Fatalf("upload v1 decoded contributor %q score %v", u.Contributor, score)
	}
	buf, err = appendUpload(nil, u, score)
	checkGolden(t, "upload v1 re-encoded as v2", goldenUploadV2Anon, buf, err)

	buf, err = appendSessionOpen(nil, "sess-7", trajectory.ModeDriving, "")
	checkGolden(t, "session open", goldenSessionOpen, buf, err)
	buf, err = appendSessionOpen(nil, "sess-7", trajectory.ModeDriving, "device-0042")
	checkGolden(t, "session open with contributor", goldenSessionOpenAs, buf, err)
	for _, golden := range []string{goldenSessionOpen, goldenSessionOpenAs} {
		id, mode, contributor, err := decodeSessionOpen(unhex(t, golden))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := appendSessionOpen(nil, id, mode, contributor)
		checkGolden(t, "session open re-encoded", golden, buf, err)
	}

	buf, err = appendSessionVerdict(nil, "sess-7", sessionAccepted, pFake)
	checkGolden(t, "verdict accepted", goldenVerdictAccept, buf, err)
	buf, err = appendSessionVerdict(nil, "sess-7", sessionRejected, pFake)
	checkGolden(t, "verdict rejected", goldenVerdictReject, buf, err)
	for _, golden := range []string{goldenVerdictAccept, goldenVerdictReject} {
		id, outcome, score, err := decodeSessionVerdict(unhex(t, golden))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := appendSessionVerdict(nil, id, outcome, score)
		checkGolden(t, "verdict re-encoded", golden, buf, err)
	}

	buf, err = appendSessionReject(nil, "sess-7")
	checkGolden(t, "session reject", goldenSessionReject, buf, err)
	id, err := decodeSessionReject(unhex(t, goldenSessionReject))
	if err != nil || id != "sess-7" {
		t.Fatalf("session reject decoded %q, %v", id, err)
	}
}

func TestGoldenWireFrames(t *testing.T) {
	up := &UploadRequest{ID: "golden-1", Mode: "cycling", Contributor: "device-0042", Points: goldenWirePoints()}
	buf, err := EncodeUploadBinary(up)
	checkGolden(t, "wire upload", goldenWireUpload, buf, err)
	up.Contributor, up.Mode = "", ""
	buf, err = EncodeUploadBinary(up)
	checkGolden(t, "wire upload anonymous", goldenWireUploadAnon, buf, err)
	for _, golden := range []string{goldenWireUpload, goldenWireUploadAnon} {
		req, err := ParseUploadBinary(unhex(t, golden))
		if err != nil {
			t.Fatal(err)
		}
		if req.Points[1].Scan != nil {
			t.Fatal("empty wire scan decoded non-nil; JSON's absent scan is nil")
		}
		buf, err := EncodeUploadBinary(req)
		checkGolden(t, "wire upload re-encoded", golden, buf, err)
	}

	app := &SessionAppendRequest{SessionID: "sess-7", Seq: 3, Points: goldenWirePoints()}
	buf, err = EncodeSessionAppendBinary(app)
	checkGolden(t, "wire append", goldenWireAppend, buf, err)
	req, err := ParseSessionAppendBinary(unhex(t, goldenWireAppend))
	if err != nil {
		t.Fatal(err)
	}
	if req.SessionID != "sess-7" || req.Seq != 3 || len(req.Points) != 3 {
		t.Fatalf("wire append decoded %+v", req)
	}
	buf, err = EncodeSessionAppendBinary(req)
	checkGolden(t, "wire append re-encoded", goldenWireAppend, buf, err)
	if !bytes.Equal(buf[:2], []byte{wireVersion, wireKindSessionAppend}) {
		t.Fatalf("wire append header % x", buf[:2])
	}
}
