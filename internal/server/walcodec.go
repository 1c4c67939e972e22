package server

import (
	"fmt"
	"time"

	"trajforge/internal/binenc"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// WAL frame payload codec for accepted uploads. The wire JSON form cannot
// be reused here: it roundtrips positions through lat/lon, which perturbs
// the plane coordinates by ulps and would break bit-identical recovery.
// This codec stores the already-projected plane floats verbatim
// (little-endian IEEE-754 bits), so a store rebuilt from the log answers
// feature queries bit-identically to the store that ingested the upload.
//
// Layout (version 2, little endian):
//
//	u8 version | u8 mode | u16 len(id) | id |
//	u32 nPoints | nPoints × { f64 X | f64 Y | i64 unixNanos } |
//	nPoints × { u16 nObs | nObs × { u8 len(mac) | mac | i16 rssi } } |
//	u16 len(contributor) | contributor | f64 pFake
//
// Version 1 frames (pre-provenance) end after the scans; decodeUpload
// accepts both, mapping v1 to the legacy anonymous contributor with a
// zero score, so WALs written before the trust subsystem still recover.
// pFake is the WiFi detector's verdict score (exact IEEE-754 bits): the
// trust ledger's agreement statistic feeds on it, so replay must see the
// same value the live accept saw. Session chunk frames reuse this codec
// with pFake 0 — their score rides the session verdict frame instead.

const uploadCodecVersion = 2

// walPointSize is the fixed per-point cost (X, Y, nanos) plus the point's
// scan count: the least a claimed point occupies.
const walPointSize = 24 + 2

// appendUpload encodes u onto buf and returns the extended slice.
func appendUpload(buf []byte, u *wifi.Upload, pFake float64) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	buf = append(buf, uploadCodecVersion, byte(u.Traj.Mode))
	buf, err := binenc.AppendStr16(buf, u.Traj.ID)
	if err != nil {
		return nil, fmt.Errorf("server: upload id: %w", err)
	}
	buf = binenc.AppendU32(buf, uint32(u.Traj.Len()))
	for _, pt := range u.Traj.Points {
		buf = binenc.AppendF64(buf, pt.Pos.X)
		buf = binenc.AppendF64(buf, pt.Pos.Y)
		buf = binenc.AppendU64(buf, uint64(pt.Time.UnixNano()))
	}
	for i, scan := range u.Scans {
		if buf, err = binenc.AppendScan(buf, scan); err != nil {
			return nil, fmt.Errorf("server: scan %d: %w", i, err)
		}
	}
	if buf, err = binenc.AppendStr16(buf, u.Contributor); err != nil {
		return nil, fmt.Errorf("server: contributor: %w", err)
	}
	return binenc.AppendF64(buf, pFake), nil
}

// decodeUpload parses one frame payload back into an upload.
func decodeUpload(data []byte) (*wifi.Upload, float64, error) {
	r := binenc.NewReader(data)
	ver := r.U8()
	if r.Err() == nil && ver != 1 && ver != uploadCodecVersion {
		return nil, 0, fmt.Errorf("server: unknown upload frame version %d", ver)
	}
	t := &trajectory.T{}
	t.Mode = trajectory.Mode(r.U8())
	t.ID = r.Str16()
	t.Points = make([]trajectory.Point, r.Count(r.U32(), walPointSize))
	for i := 0; i < len(t.Points) && r.Err() == nil; i++ {
		t.Points[i].Pos.X = r.F64()
		t.Points[i].Pos.Y = r.F64()
		t.Points[i].Time = time.Unix(0, int64(r.U64())).UTC()
	}
	u := &wifi.Upload{Traj: t, Scans: make([]wifi.Scan, len(t.Points))}
	for i := 0; i < len(u.Scans) && r.Err() == nil; i++ {
		// The ingest path hands the store empty, non-nil scans for points
		// that heard nothing; replay rebuilds exactly that.
		if u.Scans[i] = r.Scan(); u.Scans[i] == nil {
			u.Scans[i] = wifi.Scan{}
		}
	}
	var pFake float64
	if ver >= 2 {
		u.Contributor = r.Str16()
		pFake = r.F64()
	}
	if err := r.Done(); err != nil {
		return nil, 0, fmt.Errorf("server: upload frame: %w", err)
	}
	return u, pFake, nil
}

// appendSessionID starts a session frame payload: `u16 len(id) | id`.
func appendSessionID(buf []byte, id string) ([]byte, error) {
	if id == "" {
		return nil, fmt.Errorf("server: session frame without an id")
	}
	buf, err := binenc.AppendStr16(buf, id)
	if err != nil {
		return nil, fmt.Errorf("server: session id: %w", err)
	}
	return buf, nil
}

// appendSessionOpen encodes a frameSessionOpen payload:
//
//	u16 len(id) | id | u8 mode [ | u16 len(contributor) | contributor ]
//
// The contributor block is appended only when non-empty; old frames (and
// anonymous sessions) end after the mode byte, so pre-provenance WALs
// still decode.
func appendSessionOpen(buf []byte, id string, mode trajectory.Mode, contributor string) ([]byte, error) {
	buf, err := appendSessionID(buf, id)
	if err != nil {
		return nil, err
	}
	buf = append(buf, byte(mode))
	if contributor != "" {
		if buf, err = binenc.AppendStr16(buf, contributor); err != nil {
			return nil, fmt.Errorf("server: contributor: %w", err)
		}
	}
	return buf, nil
}

// decodeSessionOpen parses a frameSessionOpen payload.
func decodeSessionOpen(data []byte) (string, trajectory.Mode, string, error) {
	r := binenc.NewReader(data)
	id, mode := r.Str16(), trajectory.Mode(r.U8())
	contributor := readContributorBlock(r)
	if err := r.Done(); err != nil {
		return "", 0, "", fmt.Errorf("server: session open frame: %w", err)
	}
	return id, mode, contributor, nil
}

// appendSessionVerdict encodes a frameSessionVerdict payload:
//
//	u16 len(id) | id | u8 outcome [ | f64 pFake ]
//
// The detector score is appended only for accepted outcomes — it feeds
// the trust ledger's agreement statistic at replay, and only accepted
// sessions reach the trust pipeline. Old frames (and rejects/aborts) end
// after the outcome byte, so pre-provenance WALs still decode.
func appendSessionVerdict(buf []byte, id string, outcome byte, pFake float64) ([]byte, error) {
	buf, err := appendSessionID(buf, id)
	if err != nil {
		return nil, err
	}
	buf = append(buf, outcome)
	if outcome == sessionAccepted {
		buf = binenc.AppendF64(buf, pFake)
	}
	return buf, nil
}

// decodeSessionVerdict parses a frameSessionVerdict payload.
func decodeSessionVerdict(data []byte) (string, byte, float64, error) {
	r := binenc.NewReader(data)
	id, outcome := r.Str16(), r.U8()
	var pFake float64
	if r.Len() > 0 {
		pFake = r.F64()
	}
	if err := r.Done(); err != nil {
		return "", 0, 0, fmt.Errorf("server: session verdict frame: %w", err)
	}
	return id, outcome, pFake, nil
}

// appendSessionReject encodes a frameSessionReject payload:
//
//	u16 len(id) | id
func appendSessionReject(buf []byte, id string) ([]byte, error) {
	return appendSessionID(buf, id)
}

// decodeSessionReject parses a frameSessionReject payload.
func decodeSessionReject(data []byte) (string, error) {
	r := binenc.NewReader(data)
	id := r.Str16()
	if err := r.Done(); err != nil {
		return "", fmt.Errorf("server: session reject frame: %w", err)
	}
	return id, nil
}
