package server

import (
	"errors"
	"fmt"
	"math"

	"trajforge/internal/binenc"
	"trajforge/internal/trajectory"
)

// Binary request codec for the upload and session-append endpoints,
// negotiated by Content-Type. JSON remains the default wire form; clients
// that opt in send the same logical request as a versioned, length-checked
// binary frame and skip JSON tokenisation on both ends. The framing
// discipline is the WAL codec's: fixed little-endian fields, u16/u8 length
// prefixes for strings, and exact IEEE-754 bits for every float — the
// wire carries the lat/lon float64 bits that JSON also roundtrips
// losslessly, so a binary upload decodes to the byte-identical
// UploadRequest a JSON upload does and the verdict (probabilities
// included) is bit-identical across the two encodings.
//
// Frame layout (little endian):
//
//	u8 version (1) | u8 kind | u32 payloadLen | payload
//
// kind=1 (upload) payload:
//
//	u16 len(id) | id | u8 mode | u32 nPoints |
//	nPoints × { f64 lat | f64 lon | i64 unixMillis } |
//	nPoints × { u16 nObs | nObs × { u8 len(mac) | mac | i16 rssi } }
//	[ | u16 len(contributor) | contributor ]
//
// The contributor block is present iff the contributor is non-empty
// (the parser rejects a present-but-empty block), so pre-provenance
// frames — which end after the scans — parse unchanged as the legacy
// anonymous contributor and canonicity is preserved in both directions.
//
// kind=2 (session append) payload:
//
//	u16 len(sessionID) | sessionID | u32 seq | u32 nPoints |
//	points and scans as in kind=1 (no contributor block: identity is
//	bound at /v1/session/open)
//
// The encoding is canonical — fixed field order, the one optional field
// constrained so only one encoding exists per value, no redundancy beyond
// payloadLen (which must equal the remaining byte count exactly) — so
// encode(parse(frame)) reproduces the frame byte for byte;
// FuzzBinaryCodec pins that property.

// ContentTypeBinary is the negotiated media type of binary request bodies.
const ContentTypeBinary = "application/x-trajforge-v1"

const (
	wireVersion           = 1
	wireKindUpload        = 1
	wireKindSessionAppend = 2

	// wirePointSize is the fixed per-point cost (lat, lon, millis); scans
	// follow separately. Used for the claims check before allocating.
	wirePointSize = 24
)

// Typed decode failures, distinguishable with errors.Is. Truncated,
// oversized and value are binenc's sentinels under the names this package
// has always exported; version and kind belong to this frame format.
var (
	// ErrWireTruncated: the frame ends before a declared field.
	ErrWireTruncated = binenc.ErrTruncated
	// ErrWireOversized: a declared count cannot fit the frame's bytes, or
	// the payload length disagrees with the body.
	ErrWireOversized = binenc.ErrOversized
	// ErrWireVersion: the version byte is not a version this server speaks.
	ErrWireVersion = errors.New("server: unsupported binary frame version")
	// ErrWireKind: the kind byte does not match the endpoint.
	ErrWireKind = errors.New("server: wrong binary frame kind")
	// ErrWireValue: a field holds a value with no wire meaning (an unknown
	// travel mode, an RSSI outside int16).
	ErrWireValue = binenc.ErrValue
)

// wireHeader parses and checks the three-field frame header, returning the
// payload cursor. Version and kind are judged as soon as they are read, so
// a frame from another version is named as that, not as truncated.
func wireHeader(data []byte, wantKind byte) (*binenc.Reader, error) {
	r := binenc.NewReader(data)
	if ver := r.U8(); r.Err() == nil && ver != wireVersion {
		return nil, fmt.Errorf("%w: got version %d, speak %d", ErrWireVersion, ver, wireVersion)
	}
	if kind := r.U8(); r.Err() == nil && kind != wantKind {
		return nil, fmt.Errorf("%w: got kind %d, endpoint takes %d", ErrWireKind, kind, wantKind)
	}
	r.PayloadLen()
	return r, r.Err()
}

// wireMode maps a mode byte to the wire (JSON) mode string; 0 is the
// unset mode and stays "".
func wireMode(b byte) (string, error) {
	if b == 0 {
		return "", nil
	}
	m := trajectory.Mode(b)
	for _, known := range trajectory.Modes() {
		if m == known {
			return m.String(), nil
		}
	}
	return "", fmt.Errorf("%w: unknown travel mode byte %d", ErrWireValue, b)
}

// wireModeByte is wireMode's inverse for the encoder.
func wireModeByte(mode string) (byte, error) {
	if mode == "" {
		return 0, nil
	}
	m, err := trajectory.ParseMode(mode)
	if err != nil {
		return 0, err
	}
	return byte(m), nil
}

// wirePoints parses a point count, that many points, and their scans off
// the cursor. An empty scan decodes as nil, as JSON's absent "scan" does.
func wirePoints(r *binenc.Reader) []uploadPoint {
	pts := make([]uploadPoint, r.Count(r.U32(), wirePointSize))
	for i := 0; i < len(pts) && r.Err() == nil; i++ {
		pts[i].Lat = r.F64()
		pts[i].Lon = r.F64()
		pts[i].Time = int64(r.U64())
	}
	for i := 0; i < len(pts) && r.Err() == nil; i++ {
		pts[i].Scan = r.Scan()
	}
	return pts
}

// appendWirePoints encodes the point count, the points and their scans onto
// buf — the encoder wirePoints inverts.
func appendWirePoints(buf []byte, pts []uploadPoint) ([]byte, error) {
	buf = binenc.AppendU32(buf, uint32(len(pts)))
	for _, p := range pts {
		buf = binenc.AppendF64(buf, p.Lat)
		buf = binenc.AppendF64(buf, p.Lon)
		buf = binenc.AppendU64(buf, uint64(p.Time))
	}
	var err error
	for i, p := range pts {
		if buf, err = binenc.AppendScan(buf, p.Scan); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return buf, nil
}

// EncodeUploadBinary renders an upload request as a binary frame for
// Content-Type ContentTypeBinary. It is the exact inverse of
// ParseUploadBinary on every frame the parser accepts.
func EncodeUploadBinary(req *UploadRequest) ([]byte, error) {
	mode, err := wireModeByte(req.Mode)
	if err != nil {
		return nil, err
	}
	buf := binenc.NewFrame(wireVersion, wireKindUpload, 2+len(req.ID)+1+4+len(req.Points)*wirePointSize)
	if buf, err = binenc.AppendStr16(buf, req.ID); err != nil {
		return nil, err
	}
	buf = append(buf, mode)
	if buf, err = appendWirePoints(buf, req.Points); err != nil {
		return nil, err
	}
	if req.Contributor != "" {
		if buf, err = binenc.AppendStr16(buf, req.Contributor); err != nil {
			return nil, err
		}
	}
	return binenc.FinishFrame(buf), nil
}

// readContributorBlock reads the optional trailing `u16 len | contributor`
// block. An empty contributor must be encoded by omission, else two frames
// would decode to the same value and canonicity breaks.
func readContributorBlock(r *binenc.Reader) string {
	if r.Err() != nil || r.Len() == 0 {
		return ""
	}
	c := r.Str16()
	if c == "" {
		r.Fail(fmt.Errorf("%w: empty contributor block", ErrWireValue))
	}
	return c
}

// ParseUploadBinary parses a binary upload frame into the same
// UploadRequest the JSON decoder produces; semantic validation (coordinate
// ranges, point-count limits) stays with Service.decode, shared by both
// wire forms.
func ParseUploadBinary(data []byte) (*UploadRequest, error) {
	r, err := wireHeader(data, wireKindUpload)
	if err != nil {
		return nil, err
	}
	req := &UploadRequest{ID: r.Str16()}
	modeByte := r.U8()
	if r.Err() == nil {
		if req.Mode, err = wireMode(modeByte); err != nil {
			return nil, err
		}
	}
	req.Points = wirePoints(r)
	req.Contributor = readContributorBlock(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeSessionAppendBinary renders a session append as a binary frame.
func EncodeSessionAppendBinary(req *SessionAppendRequest) ([]byte, error) {
	if req.Seq < 0 || int64(req.Seq) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: seq %d outside uint32", ErrWireValue, req.Seq)
	}
	buf := binenc.NewFrame(wireVersion, wireKindSessionAppend, 2+len(req.SessionID)+8+len(req.Points)*wirePointSize)
	buf, err := binenc.AppendStr16(buf, req.SessionID)
	if err != nil {
		return nil, err
	}
	buf = binenc.AppendU32(buf, uint32(req.Seq))
	if buf, err = appendWirePoints(buf, req.Points); err != nil {
		return nil, err
	}
	return binenc.FinishFrame(buf), nil
}

// ParseSessionAppendBinary parses a binary session-append frame.
func ParseSessionAppendBinary(data []byte) (*SessionAppendRequest, error) {
	r, err := wireHeader(data, wireKindSessionAppend)
	if err != nil {
		return nil, err
	}
	req := &SessionAppendRequest{SessionID: r.Str16(), Seq: int(r.U32()), Points: wirePoints(r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return req, nil
}
