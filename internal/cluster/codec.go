// Shard-transport codec: the compact binary RPC frames the coordinator and
// shard nodes exchange. The framing discipline is internal/server's wire
// codec — fixed little-endian fields, u8/u16 length prefixes for strings,
// exact IEEE-754 bits for every float — so a record or a confidence vector
// crosses a node boundary without losing a single bit, and a verdict
// computed against a remote tile is bit-identical to one computed against
// the same tile in-process.
//
// Frame layout (little endian):
//
//	u8 version (2) | u8 kind | u32 payloadLen | payload
//
// Version 2 added the contributor identity (str8) to every record — the
// ingestion provenance the trust pipeline relies on — so provenance
// crosses node boundaries and tile migrations bit-identically. The codec
// also frames each node's tile WAL, so a node's durable lineage carries
// provenance too. Version 1 frames are refused (a cluster is always one
// build).
//
// Every request payload starts with `u32 deadlineMs` — the milliseconds the
// originating request has left, 0 for none — so a node can stop working on
// a forward whose client deadline already passed, and the coordinator's
// admission accounting sees remote time bounded by the same clock as local
// time. Requests that mutate or read tile state also carry the sender's
// assignment epoch; a node answers statusWrongEpoch when the epochs
// disagree, which is the fencing that prevents a stale coordinator or a
// half-migrated tile from being served by two owners.
//
// The encoding is canonical — fixed field order, RSSI maps sorted by MAC,
// assignment members and overrides sorted, payloadLen checked exactly, no
// trailing bytes — so encode(decode(frame)) reproduces the frame byte for
// byte; FuzzClusterCodec pins that property.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

const (
	codecVersion = 2

	// maxFrameBytes bounds one frame on the wire (header + payload).
	maxFrameBytes = 32 << 20
)

// Message kinds. Requests are odd, responses even.
const (
	kindHello     byte = 1  // coordinator introduces itself to a node
	kindAck       byte = 2  // generic response: status + node epoch
	kindAdd       byte = 3  // ingest a batch of (tile, seq, record) entries
	kindConf      byte = 5  // point-confidence query against one tile
	kindConfResp  byte = 6  // confidence vector reply
	kindFreeze    byte = 7  // mark a tile read-only ahead of migration
	kindFetchTile byte = 9  // read a tile's full entry log (migration handoff)
	kindTileState byte = 10 // fetchTile reply
	kindInstall   byte = 11 // install handed-off entries on the new owner
	kindDrop      byte = 13 // drop a migrated-away tile
	kindAssign    byte = 15 // push a new assignment map (epoch bump)
	kindTileSeqs  byte = 17 // read per-tile applied sequence numbers
	kindSeqsResp  byte = 18 // tileSeqs reply
	kindStats     byte = 19 // read node occupancy counters
	kindStatsResp byte = 20 // stats reply
)

// Response status codes.
const (
	statusOK         byte = 0
	statusWrongEpoch byte = 1 // sender epoch != node epoch; body carries the node's
	statusNotOwner   byte = 2 // tile not assigned to this node at this epoch
	statusFrozen     byte = 3 // tile is frozen for migration (writes rejected)
	statusFailed     byte = 4 // node-side failure (message in Msg)
	statusExpired    byte = 5 // request deadline already expired; refused unworked
)

// Typed decode failures, distinguishable with errors.Is.
var (
	// ErrTruncated: the frame ends before a declared field.
	ErrTruncated = errors.New("cluster: truncated frame")
	// ErrOversized: a declared count cannot fit the frame's bytes, or the
	// payload length disagrees with the body.
	ErrOversized = errors.New("cluster: oversized frame")
	// ErrVersion: the version byte is not one this node speaks.
	ErrVersion = errors.New("cluster: unsupported frame version")
	// ErrKind: the kind byte is unknown or wrong for the context.
	ErrKind = errors.New("cluster: unexpected frame kind")
	// ErrValue: a field holds a value with no wire meaning (an unsorted
	// RSSI map, an out-of-range length, a non-canonical assignment).
	ErrValue = errors.New("cluster: invalid frame value")
)

// Hello is the connection preamble the coordinator sends.
type Hello struct {
	Deadline uint32
	NodeID   string
}

// Ack is the generic response: a status, the node's current epoch, and an
// optional message (the error text for statusFailed).
type Ack struct {
	Status byte
	Epoch  uint64
	Msg    string
}

// Entry is one record destined for one tile, stamped with its canonical-log
// sequence number. The sequence is the replication cursor: nodes apply an
// entry only when Seq exceeds the tile's last applied sequence, which makes
// batches, migration installs, and resyncs idempotent.
type Entry struct {
	Tile [2]int
	Seq  uint64
	Rec  rssimap.Record
	// enc, when set, is Rec's canonical encoding (appendRecord's output).
	// The coordinator's ingest encodes each record once and every (tile,
	// replica) entry it fans out splices these bytes instead of re-sorting
	// the record's MACs.
	enc []byte
}

// AddReq ingests a batch of entries (kindAdd) or installs a handed-off tile
// log on a migration target (kindInstall).
type AddReq struct {
	Deadline uint32
	Epoch    uint64
	Entries  []Entry
}

// ConfReq asks the owner of Tile for the point confidences of one scan.
type ConfReq struct {
	Deadline uint32
	Epoch    uint64
	Tile     [2]int
	Pos      geo.Point
	Cfg      rssimap.FeatureConfig
	Scan     wifi.Scan
}

// ConfResp answers a ConfReq.
type ConfResp struct {
	Status byte
	Epoch  uint64
	Msg    string
	Confs  []rssimap.PointConfidence
}

// TileReq addresses one tile: freeze (kindFreeze), fetch (kindFetchTile),
// or drop (kindDrop).
type TileReq struct {
	Deadline uint32
	Epoch    uint64
	Tile     [2]int
}

// TileState answers a kindFetchTile with the tile's entry log in applied
// order — the WAL tail the migration hands to the new owner.
type TileState struct {
	Status  byte
	Epoch   uint64
	Msg     string
	Entries []Entry
}

// AssignReq pushes a new assignment map to a node.
type AssignReq struct {
	Deadline uint32
	Assign   Assignment
}

// SeqsReq asks a node for its per-tile applied sequence numbers (resync).
type SeqsReq struct {
	Deadline uint32
}

// TileSeq is one tile's applied-sequence high-water mark.
type TileSeq struct {
	Tile [2]int
	Seq  uint64
}

// SeqsResp answers a kindTileSeqs.
type SeqsResp struct {
	Status byte
	Epoch  uint64
	Msg    string
	Tiles  []TileSeq
}

// StatsReq asks a node for occupancy counters.
type StatsReq struct {
	Deadline uint32
}

// StatsResp answers a kindStats.
type StatsResp struct {
	Status     byte
	Epoch      uint64
	Msg        string
	Tiles      uint32
	Entries    uint64
	WALFrames  uint64
	WALBytes   int64
	Generation uint64
	// ExpiredRejects counts requests the node refused unworked because
	// their wire deadline had already expired on arrival.
	ExpiredRejects uint64
}

// reader is a bounds-checked cursor over one frame.
type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) || r.off+n < 0 {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data))
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(v), nil
}

// str16 reads a u16-length-prefixed string.
func (r *reader) str16() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// str8 reads a u8-length-prefixed string.
func (r *reader) str8() (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) tile() ([2]int, error) {
	x, err := r.u32()
	if err != nil {
		return [2]int{}, err
	}
	y, err := r.u32()
	if err != nil {
		return [2]int{}, err
	}
	return [2]int{int(int32(x)), int(int32(y))}, nil
}

func (r *reader) done() error {
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrOversized, len(r.data)-r.off)
	}
	return nil
}

// header parses the three-field frame header, returning the kind and the
// payload cursor.
func header(data []byte) (byte, *reader, error) {
	r := &reader{data: data}
	ver, err := r.u8()
	if err != nil {
		return 0, nil, err
	}
	if ver != codecVersion {
		return 0, nil, fmt.Errorf("%w: got version %d, speak %d", ErrVersion, ver, codecVersion)
	}
	kind, err := r.u8()
	if err != nil {
		return 0, nil, err
	}
	plen, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	rest := len(data) - r.off
	if int64(plen) > int64(rest) {
		return 0, nil, fmt.Errorf("%w: header declares %d payload bytes, %d present", ErrTruncated, plen, rest)
	}
	if int(plen) < rest {
		return 0, nil, fmt.Errorf("%w: header declares %d payload bytes, %d present", ErrOversized, plen, rest)
	}
	return kind, r, nil
}

// --- encoder helpers ---

func appendStr16(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrValue, len(s))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

func appendStr8(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint8 {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrValue, len(s))
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...), nil
}

func appendTile(buf []byte, t [2]int) ([]byte, error) {
	if t[0] < math.MinInt32 || t[0] > math.MaxInt32 || t[1] < math.MinInt32 || t[1] > math.MaxInt32 {
		return nil, fmt.Errorf("%w: tile %v outside int32", ErrValue, t)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(t[0])))
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(t[1]))), nil
}

// newFrame starts a frame of the given kind with the 6-byte header slot.
func newFrame(kind byte, sizeHint int) []byte {
	buf := make([]byte, 6, 6+sizeHint)
	buf[0], buf[1] = codecVersion, kind
	return buf
}

// finishFrame stamps the payload length into the reserved header slot.
func finishFrame(buf []byte) ([]byte, error) {
	if len(buf) > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrValue, len(buf), maxFrameBytes)
	}
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(buf)-6))
	return buf, nil
}

// --- record / entry ---

// appendRecord encodes one record with its RSSI map in ascending-MAC order,
// the canonical form decodeRecord enforces.
func appendRecord(buf []byte, rec rssimap.Record) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Pos.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Pos.Y))
	if len(rec.RSSI) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: record reports %d APs", ErrValue, len(rec.RSSI))
	}
	macs := make([]string, 0, len(rec.RSSI))
	for mac := range rec.RSSI {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(macs)))
	var err error
	for _, mac := range macs {
		if buf, err = appendStr8(buf, mac); err != nil {
			return nil, err
		}
		rssi := rec.RSSI[mac]
		if rssi < math.MinInt16 || rssi > math.MaxInt16 {
			return nil, fmt.Errorf("%w: RSSI %d outside int16", ErrValue, rssi)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(rssi)))
	}
	if buf, err = appendStr8(buf, rec.Contributor); err != nil {
		return nil, err
	}
	return buf, nil
}

// recMinBytes is the fixed per-record wire cost (pos + AP count +
// contributor length byte).
const recMinBytes = 8 + 8 + 2 + 1

func decodeRecord(r *reader) (rssimap.Record, error) {
	var rec rssimap.Record
	x, err := r.f64()
	if err != nil {
		return rec, err
	}
	y, err := r.f64()
	if err != nil {
		return rec, err
	}
	n, err := r.u16()
	if err != nil {
		return rec, err
	}
	rec.Pos = geo.Point{X: x, Y: y}
	rec.RSSI = make(map[string]int, n)
	prev := ""
	for i := 0; i < int(n); i++ {
		mac, err := r.str8()
		if err != nil {
			return rec, err
		}
		if i > 0 && mac <= prev {
			return rec, fmt.Errorf("%w: RSSI map not in strict MAC order (%q after %q)", ErrValue, mac, prev)
		}
		prev = mac
		rssi, err := r.u16()
		if err != nil {
			return rec, err
		}
		rec.RSSI[mac] = int(int16(rssi))
	}
	if rec.Contributor, err = r.str8(); err != nil {
		return rec, err
	}
	return rec, nil
}

// entryMinBytes is the fixed per-entry wire cost (tile + seq + record min).
const entryMinBytes = 8 + 8 + recMinBytes

func appendEntry(buf []byte, e Entry) ([]byte, error) {
	buf, err := appendTile(buf, e.Tile)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	if e.enc != nil {
		return append(buf, e.enc...), nil
	}
	return appendRecord(buf, e.Rec)
}

func decodeEntries(r *reader) ([]Entry, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n)*entryMinBytes > int64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: claims %d entries in %d payload bytes", ErrOversized, n, len(r.data)-r.off)
	}
	entries := make([]Entry, n)
	for i := range entries {
		if entries[i].Tile, err = r.tile(); err != nil {
			return nil, err
		}
		if entries[i].Seq, err = r.u64(); err != nil {
			return nil, err
		}
		if entries[i].Rec, err = decodeRecord(r); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

func appendEntries(buf []byte, entries []Entry) ([]byte, error) {
	if len(entries) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d entries", ErrValue, len(entries))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	var err error
	for _, e := range entries {
		if buf, err = appendEntry(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- scan / feature config / confidences ---

func appendScan(buf []byte, scan wifi.Scan) ([]byte, error) {
	if len(scan) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: scan of %d observations", ErrValue, len(scan))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(scan)))
	var err error
	for _, obs := range scan {
		if buf, err = appendStr8(buf, obs.MAC); err != nil {
			return nil, err
		}
		if obs.RSSI < math.MinInt16 || obs.RSSI > math.MaxInt16 {
			return nil, fmt.Errorf("%w: RSSI %d outside int16", ErrValue, obs.RSSI)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(obs.RSSI)))
	}
	return buf, nil
}

func decodeScan(r *reader) (wifi.Scan, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	scan := make(wifi.Scan, 0, n)
	for i := 0; i < int(n); i++ {
		mac, err := r.str8()
		if err != nil {
			return nil, err
		}
		rssi, err := r.u16()
		if err != nil {
			return nil, err
		}
		scan = append(scan, wifi.Observation{MAC: mac, RSSI: int(int16(rssi))})
	}
	return scan, nil
}

// Feature-config flag bits.
const (
	cfgIncludeNum       = 1 << 0
	cfgIncludeResiduals = 1 << 1
	cfgDisableTheta2    = 1 << 2
	cfgIncludeSummary   = 1 << 3
	cfgFlagsMask        = cfgIncludeNum | cfgIncludeResiduals | cfgDisableTheta2 | cfgIncludeSummary
)

func appendFeatureConfig(buf []byte, cfg rssimap.FeatureConfig) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.R))
	if cfg.TopK < 0 || cfg.TopK > math.MaxUint16 {
		return nil, fmt.Errorf("%w: TopK %d outside uint16", ErrValue, cfg.TopK)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(cfg.TopK))
	if cfg.Tol < math.MinInt16 || cfg.Tol > math.MaxInt16 {
		return nil, fmt.Errorf("%w: Tol %d outside int16", ErrValue, cfg.Tol)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(cfg.Tol)))
	var flags byte
	if cfg.IncludeNum {
		flags |= cfgIncludeNum
	}
	if cfg.IncludeResiduals {
		flags |= cfgIncludeResiduals
	}
	if cfg.DisableTheta2 {
		flags |= cfgDisableTheta2
	}
	if cfg.IncludeSummary {
		flags |= cfgIncludeSummary
	}
	return append(buf, flags), nil
}

func decodeFeatureConfig(r *reader) (rssimap.FeatureConfig, error) {
	var cfg rssimap.FeatureConfig
	rr, err := r.f64()
	if err != nil {
		return cfg, err
	}
	topk, err := r.u16()
	if err != nil {
		return cfg, err
	}
	tol, err := r.u16()
	if err != nil {
		return cfg, err
	}
	flags, err := r.u8()
	if err != nil {
		return cfg, err
	}
	if flags&^byte(cfgFlagsMask) != 0 {
		return cfg, fmt.Errorf("%w: unknown feature-config flags %#x", ErrValue, flags)
	}
	cfg.R = rr
	cfg.TopK = int(topk)
	cfg.Tol = rssimap.Tolerance(int16(tol))
	cfg.IncludeNum = flags&cfgIncludeNum != 0
	cfg.IncludeResiduals = flags&cfgIncludeResiduals != 0
	cfg.DisableTheta2 = flags&cfgDisableTheta2 != 0
	cfg.IncludeSummary = flags&cfgIncludeSummary != 0
	return cfg, nil
}

// confMinBytes is the fixed per-confidence wire cost.
const confMinBytes = 1 + 8 + 4 + 8 + 4

func appendConfs(buf []byte, confs []rssimap.PointConfidence) ([]byte, error) {
	if len(confs) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d confidences", ErrValue, len(confs))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(confs)))
	var err error
	for _, c := range confs {
		if buf, err = appendStr8(buf, c.MAC); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Phi))
		if c.Num < 0 || int64(c.Num) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: Num %d outside uint32", ErrValue, c.Num)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Num))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Residual))
		if c.Heard < 0 || int64(c.Heard) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: Heard %d outside uint32", ErrValue, c.Heard)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Heard))
	}
	return buf, nil
}

func decodeConfs(r *reader) ([]rssimap.PointConfidence, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n)*confMinBytes > int64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: claims %d confidences in %d payload bytes", ErrOversized, n, len(r.data)-r.off)
	}
	confs := make([]rssimap.PointConfidence, n)
	for i := range confs {
		if confs[i].MAC, err = r.str8(); err != nil {
			return nil, err
		}
		if confs[i].Phi, err = r.f64(); err != nil {
			return nil, err
		}
		num, err := r.u32()
		if err != nil {
			return nil, err
		}
		confs[i].Num = int(num)
		// Cluster nodes never install contributor trust tables, so the
		// trusted mass always equals the cardinality and is not carried on
		// the wire.
		confs[i].TrustNum = float64(num)
		if confs[i].Residual, err = r.f64(); err != nil {
			return nil, err
		}
		heard, err := r.u32()
		if err != nil {
			return nil, err
		}
		confs[i].Heard = int(heard)
	}
	return confs, nil
}

// --- assignment ---

// Assignment flag bits.
const (
	assignReplicate = 1 << 0
	assignFlagsMask = assignReplicate
)

// appendOverrideMap encodes one tile→node map in strict tile order.
func appendOverrideMap(buf []byte, m map[[2]int]string) ([]byte, error) {
	if len(m) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d overrides", ErrValue, len(m))
	}
	tiles := make([][2]int, 0, len(m))
	for t := range m {
		tiles = append(tiles, t)
	}
	sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i], tiles[j]) })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tiles)))
	var err error
	for _, t := range tiles {
		if buf, err = appendTile(buf, t); err != nil {
			return nil, err
		}
		if buf, err = appendStr16(buf, m[t]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func decodeOverrideMap(r *reader) (map[[2]int]string, error) {
	no, err := r.u32()
	if err != nil {
		return nil, err
	}
	const overrideMinBytes = 8 + 2
	if int64(no)*overrideMinBytes > int64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: claims %d overrides in %d payload bytes", ErrOversized, no, len(r.data)-r.off)
	}
	m := make(map[[2]int]string, no)
	var prev [2]int
	for i := 0; i < int(no); i++ {
		t, err := r.tile()
		if err != nil {
			return nil, err
		}
		if i > 0 && !tileLess(prev, t) {
			return nil, fmt.Errorf("%w: overrides not in strict tile order (%v after %v)", ErrValue, t, prev)
		}
		prev = t
		id, err := r.str16()
		if err != nil {
			return nil, err
		}
		m[t] = id
	}
	return m, nil
}

func appendAssignment(buf []byte, a Assignment) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, a.Epoch)
	var flags byte
	if a.Replicate {
		flags |= assignReplicate
	}
	buf = append(buf, flags)
	if len(a.Members) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d members", ErrValue, len(a.Members))
	}
	members := append([]string(nil), a.Members...)
	sort.Strings(members)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(members)))
	var err error
	for _, id := range members {
		if buf, err = appendStr16(buf, id); err != nil {
			return nil, err
		}
	}
	if buf, err = appendOverrideMap(buf, a.Overrides); err != nil {
		return nil, err
	}
	return appendOverrideMap(buf, a.FollowerOverrides)
}

func decodeAssignment(r *reader) (Assignment, error) {
	var a Assignment
	epoch, err := r.u64()
	if err != nil {
		return a, err
	}
	a.Epoch = epoch
	flags, err := r.u8()
	if err != nil {
		return a, err
	}
	if flags&^byte(assignFlagsMask) != 0 {
		return a, fmt.Errorf("%w: unknown assignment flags %#x", ErrValue, flags)
	}
	a.Replicate = flags&assignReplicate != 0
	nm, err := r.u16()
	if err != nil {
		return a, err
	}
	a.Members = make([]string, 0, nm)
	for i := 0; i < int(nm); i++ {
		id, err := r.str16()
		if err != nil {
			return a, err
		}
		if i > 0 && id <= a.Members[i-1] {
			return a, fmt.Errorf("%w: members not in strict order (%q after %q)", ErrValue, id, a.Members[i-1])
		}
		a.Members = append(a.Members, id)
	}
	if a.Overrides, err = decodeOverrideMap(r); err != nil {
		return a, err
	}
	if a.FollowerOverrides, err = decodeOverrideMap(r); err != nil {
		return a, err
	}
	return a, nil
}

func tileLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// --- frame encoders ---

// EncodeFrame renders one message as a wire frame. The message must be one
// of the typed structs above; requests and responses share the function.
func EncodeFrame(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *Hello:
		buf := newFrame(kindHello, 8+len(m.NodeID))
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		buf, err := appendStr16(buf, m.NodeID)
		if err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *Ack:
		buf := newFrame(kindAck, 16+len(m.Msg))
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *AddReq:
		return encodeAddLike(kindAdd, m)
	case *InstallReq:
		return encodeAddLike(kindInstall, (*AddReq)(m))
	case *ConfReq:
		buf := newFrame(kindConf, 64+len(m.Scan)*10)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendTile(buf, m.Tile)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Pos.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Pos.Y))
		if buf, err = appendFeatureConfig(buf, m.Cfg); err != nil {
			return nil, err
		}
		if buf, err = appendScan(buf, m.Scan); err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *ConfResp:
		buf := newFrame(kindConfResp, 32+len(m.Confs)*confMinBytes)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		if buf, err = appendConfs(buf, m.Confs); err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *FreezeReq:
		return encodeTileReq(kindFreeze, (*TileReq)(m))
	case *FetchTileReq:
		return encodeTileReq(kindFetchTile, (*TileReq)(m))
	case *DropReq:
		return encodeTileReq(kindDrop, (*TileReq)(m))
	case *TileState:
		buf := newFrame(kindTileState, 32+len(m.Entries)*entryMinBytes)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		if buf, err = appendEntries(buf, m.Entries); err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *AssignReq:
		buf := newFrame(kindAssign, 64)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		buf, err := appendAssignment(buf, m.Assign)
		if err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *SeqsReq:
		buf := newFrame(kindTileSeqs, 4)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		return finishFrame(buf)
	case *SeqsResp:
		buf := newFrame(kindSeqsResp, 32+len(m.Tiles)*16)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		if len(m.Tiles) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: %d tile seqs", ErrValue, len(m.Tiles))
		}
		tiles := append([]TileSeq(nil), m.Tiles...)
		sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i].Tile, tiles[j].Tile) })
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tiles)))
		for _, ts := range tiles {
			if buf, err = appendTile(buf, ts.Tile); err != nil {
				return nil, err
			}
			buf = binary.LittleEndian.AppendUint64(buf, ts.Seq)
		}
		return finishFrame(buf)
	case *StatsReq:
		buf := newFrame(kindStats, 4)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		return finishFrame(buf)
	case *StatsResp:
		buf := newFrame(kindStatsResp, 64)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, m.Tiles)
		buf = binary.LittleEndian.AppendUint64(buf, m.Entries)
		buf = binary.LittleEndian.AppendUint64(buf, m.WALFrames)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.WALBytes))
		buf = binary.LittleEndian.AppendUint64(buf, m.Generation)
		buf = binary.LittleEndian.AppendUint64(buf, m.ExpiredRejects)
		return finishFrame(buf)
	default:
		return nil, fmt.Errorf("%w: cannot encode %T", ErrKind, msg)
	}
}

// InstallReq is an AddReq delivered on the migration path: the node accepts
// it for tiles it does not (yet) own, which a plain add to a frozen or
// foreign tile would reject.
type InstallReq AddReq

// FreezeReq marks a tile read-only on its current owner.
type FreezeReq TileReq

// FetchTileReq reads a tile's entry log off its current owner.
type FetchTileReq TileReq

// DropReq removes a migrated-away tile from its previous owner.
type DropReq TileReq

func encodeAddLike(kind byte, m *AddReq) ([]byte, error) {
	buf := newFrame(kind, 16+len(m.Entries)*(entryMinBytes+32))
	buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf, err := appendEntries(buf, m.Entries)
	if err != nil {
		return nil, err
	}
	return finishFrame(buf)
}

func encodeTileReq(kind byte, m *TileReq) ([]byte, error) {
	buf := newFrame(kind, 20)
	buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf, err := appendTile(buf, m.Tile)
	if err != nil {
		return nil, err
	}
	return finishFrame(buf)
}

// --- frame decoder ---

// DecodeFrame parses one wire frame into its typed message.
func DecodeFrame(data []byte) (any, error) {
	kind, r, err := header(data)
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindHello:
		m := &Hello{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		if m.NodeID, err = r.str16(); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindAck:
		m := &Ack{}
		if m.Status, err = r.u8(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Msg, err = r.str16(); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindAdd, kindInstall:
		m := &AddReq{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Entries, err = decodeEntries(r); err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		if kind == kindInstall {
			return (*InstallReq)(m), nil
		}
		return m, nil
	case kindConf:
		m := &ConfReq{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Tile, err = r.tile(); err != nil {
			return nil, err
		}
		if m.Pos.X, err = r.f64(); err != nil {
			return nil, err
		}
		if m.Pos.Y, err = r.f64(); err != nil {
			return nil, err
		}
		if m.Cfg, err = decodeFeatureConfig(r); err != nil {
			return nil, err
		}
		if m.Scan, err = decodeScan(r); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindConfResp:
		m := &ConfResp{}
		if m.Status, err = r.u8(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Msg, err = r.str16(); err != nil {
			return nil, err
		}
		if m.Confs, err = decodeConfs(r); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindFreeze, kindFetchTile, kindDrop:
		m := &TileReq{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Tile, err = r.tile(); err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		switch kind {
		case kindFreeze:
			return (*FreezeReq)(m), nil
		case kindFetchTile:
			return (*FetchTileReq)(m), nil
		default:
			return (*DropReq)(m), nil
		}
	case kindTileState:
		m := &TileState{}
		if m.Status, err = r.u8(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Msg, err = r.str16(); err != nil {
			return nil, err
		}
		if m.Entries, err = decodeEntries(r); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindAssign:
		m := &AssignReq{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		if m.Assign, err = decodeAssignment(r); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindTileSeqs:
		m := &SeqsReq{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindSeqsResp:
		m := &SeqsResp{}
		if m.Status, err = r.u8(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Msg, err = r.str16(); err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		const tileSeqBytes = 8 + 8
		if int64(n)*tileSeqBytes > int64(len(r.data)-r.off) {
			return nil, fmt.Errorf("%w: claims %d tile seqs in %d payload bytes", ErrOversized, n, len(r.data)-r.off)
		}
		m.Tiles = make([]TileSeq, n)
		var prev [2]int
		for i := range m.Tiles {
			if m.Tiles[i].Tile, err = r.tile(); err != nil {
				return nil, err
			}
			if i > 0 && !tileLess(prev, m.Tiles[i].Tile) {
				return nil, fmt.Errorf("%w: tile seqs not in strict tile order", ErrValue)
			}
			prev = m.Tiles[i].Tile
			if m.Tiles[i].Seq, err = r.u64(); err != nil {
				return nil, err
			}
		}
		return m, r.done()
	case kindStats:
		m := &StatsReq{}
		if m.Deadline, err = r.u32(); err != nil {
			return nil, err
		}
		return m, r.done()
	case kindStatsResp:
		m := &StatsResp{}
		if m.Status, err = r.u8(); err != nil {
			return nil, err
		}
		if m.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Msg, err = r.str16(); err != nil {
			return nil, err
		}
		if m.Tiles, err = r.u32(); err != nil {
			return nil, err
		}
		if m.Entries, err = r.u64(); err != nil {
			return nil, err
		}
		if m.WALFrames, err = r.u64(); err != nil {
			return nil, err
		}
		wb, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.WALBytes = int64(wb)
		if m.Generation, err = r.u64(); err != nil {
			return nil, err
		}
		if m.ExpiredRejects, err = r.u64(); err != nil {
			return nil, err
		}
		return m, r.done()
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrKind, kind)
	}
}
