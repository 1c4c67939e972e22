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
//	u8 version (3) | u8 kind | u32 payloadLen | payload
//
// Version 2 added the contributor identity (str8) to every record — the
// ingestion provenance the trust pipeline relies on — so provenance
// crosses node boundaries and tile migrations bit-identically. The codec
// also frames each node's tile WAL, so a node's durable lineage carries
// provenance too. Version 3 made the confidence query many-point: a
// kindConf request carries a list of (tile, position, scan) points under
// one feature config, and its kindConfResp reply one item per point, each
// with its own status. Record, entry and assignment layouts are version 2's,
// so node WAL and snapshot payloads (which carry no frame header) are
// unchanged. Frames of any other version are refused (a cluster is always
// one build).
//
// Kinds 7, 9, 10 and 11 (freeze a tile, fetch its entry log and the reply,
// install a handed-off log) are retired: a migration now reaches the new
// holder as ordinary kindAdd batches replayed from the coordinator's
// canonical log. No layout changed, so the version stays 3; a retired kind
// byte decodes as ErrKind like any unknown one, which is all a one-build
// cluster needs.
//
// Every request payload starts with `u32 deadlineMs` — the milliseconds the
// originating request has left, 0 for none — so a node can stop working on
// a forward whose client deadline already passed, and the coordinator's
// admission accounting sees remote time bounded by the same clock as local
// time. Requests that mutate or read tile state also carry the sender's
// assignment epoch; a node answers statusWrongEpoch when the epochs
// disagree, which is the fencing that prevents a stale coordinator or a
// migrating tile from being served by two owners.
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

	"trajforge/internal/binenc"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

const (
	codecVersion = 3

	// maxFrameBytes bounds one frame on the wire (header + payload).
	maxFrameBytes = 32 << 20
)

// Message kinds. Requests are odd, responses even.
const (
	kindHello     byte = 1  // coordinator introduces itself to a node
	kindAck       byte = 2  // generic response: status + node epoch
	kindAdd       byte = 3  // ingest a batch of (tile, seq, record) entries
	kindConf      byte = 5  // point-confidence query, many points, each against its tile
	kindConfResp  byte = 6  // one confidence vector (with its status) per point
	kindDrop      byte = 13 // drop a tile the node no longer holds a replica of
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
	statusFailed     byte = 4 // node-side failure (message in Msg)
	statusExpired    byte = 5 // request deadline already expired; refused unworked
)

// Typed decode failures, distinguishable with errors.Is. Truncated,
// oversized and value are binenc's sentinels under the names this package
// has always exported; version and kind belong to this frame format.
var (
	// ErrTruncated: the frame ends before a declared field.
	ErrTruncated = binenc.ErrTruncated
	// ErrOversized: a declared count cannot fit the frame's bytes, or the
	// payload length disagrees with the body.
	ErrOversized = binenc.ErrOversized
	// ErrVersion: the version byte is not one this node speaks.
	ErrVersion = errors.New("cluster: unsupported frame version")
	// ErrKind: the kind byte is unknown or wrong for the context.
	ErrKind = errors.New("cluster: unexpected frame kind")
	// ErrValue: a field holds a value with no wire meaning (an unsorted
	// RSSI map, an out-of-range length, a non-canonical assignment).
	ErrValue = binenc.ErrValue
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
// batches, resyncs and migration catch-ups idempotent.
//
// The record travels as its canonical bytes. The coordinator encodes each
// record once and every (tile, replica) entry it fans out splices those
// bytes; the frame decoder checks an entry's record and keeps the slice of
// the frame that holds it, so a node journals and applies what it received
// without building a map. Rec is the map form for entries built in process —
// a node's tile log rebuilt from its store, tests — and is empty on a decoded
// entry: Record reads either kind.
type Entry struct {
	Tile [2]int
	Seq  uint64
	Rec  rssimap.Record
	// enc, when set, is the record's canonical encoding (appendRecord's
	// output) and Rec is not consulted; wire is then readWire's answer for it,
	// the views a tile store ingests.
	enc  []byte
	wire rssimap.WireRecord
}

// Record returns the entry's record in the map form.
func (e Entry) Record() rssimap.Record {
	if e.enc == nil {
		return e.Rec
	}
	// enc passed readWire or came from an encoder, so this cannot fail.
	return decodeRecord(binenc.NewReader(e.enc))
}

// AddReq ingests a batch of entries.
type AddReq struct {
	Deadline uint32
	Epoch    uint64
	Entries  []Entry
}

// ConfPoint is one point of a confidence query: its position, its scan,
// and the tile the coordinator resolved the position to.
type ConfPoint struct {
	Tile [2]int
	Pos  geo.Point
	Scan wifi.Scan
}

// ConfReq asks one node for the point confidences of many scans under one
// feature config, each against the tile its point names.
type ConfReq struct {
	Deadline uint32
	Epoch    uint64
	Cfg      rssimap.FeatureConfig
	Points   []ConfPoint
}

// ConfItem is one point's answer: statusOK with its confidences, or
// statusNotOwner when the node holds no replica of the point's tile at the
// request's epoch.
type ConfItem struct {
	Status byte
	Confs  []rssimap.PointConfidence
}

// ConfResp answers a ConfReq. A request-level refusal (wrong epoch, expired,
// dead storage) carries no items; statusOK carries one item per point, in
// request order.
type ConfResp struct {
	Status byte
	Epoch  uint64
	Msg    string
	Items  []ConfItem
}

// DropReq removes a tile from a node that no longer holds a replica of it.
type DropReq struct {
	Deadline uint32
	Epoch    uint64
	Tile     [2]int
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

// header parses the three-field frame header, returning the kind and the
// payload cursor. The version is judged as soon as it is read, so a frame
// from another build is named as that, not as truncated.
func header(data []byte) (byte, *binenc.Reader, error) {
	r := binenc.NewReader(data)
	if ver := r.U8(); r.Err() == nil && ver != codecVersion {
		return 0, nil, fmt.Errorf("%w: got version %d, speak %d", ErrVersion, ver, codecVersion)
	}
	kind := r.U8()
	r.PayloadLen()
	return kind, r, r.Err()
}

// finishFrame stamps the payload length into the header slot.
func finishFrame(buf []byte) ([]byte, error) {
	if len(buf) > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrValue, len(buf), maxFrameBytes)
	}
	return binenc.FinishFrame(buf), nil
}

// --- tile / status ---

func appendTile(buf []byte, t [2]int) ([]byte, error) {
	if t[0] < math.MinInt32 || t[0] > math.MaxInt32 || t[1] < math.MinInt32 || t[1] > math.MaxInt32 {
		return nil, fmt.Errorf("%w: tile %v outside int32", ErrValue, t)
	}
	buf = binenc.AppendU32(buf, uint32(int32(t[0])))
	return binenc.AppendU32(buf, uint32(int32(t[1]))), nil
}

func readTile(r *binenc.Reader) [2]int {
	x := int32(r.U32())
	y := int32(r.U32())
	return [2]int{int(x), int(y)}
}

// newResponse starts a response frame with the `u8 status | u64 epoch |
// str16 msg` prefix every response kind opens with.
func newResponse(kind byte, sizeHint int, status byte, epoch uint64, msg string) ([]byte, error) {
	buf := binenc.NewFrame(codecVersion, kind, 16+len(msg)+sizeHint)
	buf = binenc.AppendU64(append(buf, status), epoch)
	return binenc.AppendStr16(buf, msg)
}

func readResponse(r *binenc.Reader) (status byte, epoch uint64, msg string) {
	return r.U8(), r.U64(), r.Str16()
}

// --- record / entry ---

// A record's canonical encoding:
//
//	f64 x | f64 y | u16 nObs | nObs × obs, MACs strictly ascending | str8 contributor
//
// appendRecord writes it from the map form and appendScanRecord from an
// upload's scan; readWire checks it and yields views over the bytes, and
// decodeRecord reads those out as a map.

// appendRecord encodes one record with its RSSI map in ascending-MAC order.
func appendRecord(buf []byte, rec rssimap.Record) ([]byte, error) {
	buf = binenc.AppendF64(buf, rec.Pos.X)
	buf = binenc.AppendF64(buf, rec.Pos.Y)
	if len(rec.RSSI) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: record reports %d APs", ErrValue, len(rec.RSSI))
	}
	macs := make([]string, 0, len(rec.RSSI))
	for mac := range rec.RSSI {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	buf = binenc.AppendU16(buf, uint16(len(macs)))
	var err error
	for _, mac := range macs {
		if buf, err = binenc.AppendObs(buf, mac, rec.RSSI[mac]); err != nil {
			return nil, err
		}
	}
	return binenc.AppendStr8(buf, rec.Contributor)
}

// appendScanRecord encodes an upload's point: the bytes appendRecord writes
// for rec.Record(), straight from the scan. scratch is the sort buffer, handed
// back for the next call.
func appendScanRecord(buf []byte, rec rssimap.ScanRecord, scratch wifi.Scan) ([]byte, wifi.Scan, error) {
	buf = binenc.AppendF64(buf, rec.Pos.X)
	buf = binenc.AppendF64(buf, rec.Pos.Y)
	buf, scratch, err := binenc.AppendSortedScan(buf, rec.Scan, scratch)
	if err != nil {
		return nil, scratch, err
	}
	buf, err = binenc.AppendStr8(buf, rec.Contributor)
	return buf, scratch, err
}

// recMinBytes is the fixed per-record wire cost (pos + AP count +
// contributor length byte).
const recMinBytes = 8 + 8 + 2 + 1

// readWire checks one encoded record and returns it as views over the
// reader's input.
func readWire(r *binenc.Reader) rssimap.WireRecord {
	w := rssimap.WireRecord{Pos: geo.Point{X: r.F64(), Y: r.F64()}}
	w.Obs = r.SortedObs()
	w.Contributor = r.Take(int(r.U8()))
	return w
}

// decodeRecord reads one encoded record out in the map form.
func decodeRecord(r *binenc.Reader) rssimap.Record {
	w := readWire(r)
	rec := rssimap.Record{Pos: w.Pos, RSSI: make(map[string]int, w.Obs.Len()), Contributor: string(w.Contributor)}
	for obs := w.Obs; obs.Len() > 0; {
		mac, rssi := obs.Next()
		rec.RSSI[string(mac)] = int(rssi)
	}
	return rec
}

// recordPos reads the position off a record's canonical bytes.
func recordPos(enc []byte) geo.Point {
	return geo.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(enc)),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(enc[8:])),
	}
}

// readRecords checks a counted record list — the coordinator journal's ingest
// frame and the head of its checkpoint. The records sit back to back in the
// reader's input from off; ends[i] is where record i stops.
func readRecords(r *binenc.Reader) (off int, ends []int) {
	n := r.Count(r.U32(), recMinBytes)
	off = r.Mark()
	ends = make([]int, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		readWire(r)
		ends = append(ends, r.Mark())
	}
	return off, ends
}

// entryMinBytes is the fixed per-entry wire cost (tile + seq + record min).
const entryMinBytes = 8 + 8 + recMinBytes

func appendEntry(buf []byte, e Entry) ([]byte, error) {
	buf, err := appendTile(buf, e.Tile)
	if err != nil {
		return nil, err
	}
	buf = binenc.AppendU64(buf, e.Seq)
	if e.enc != nil {
		return append(buf, e.enc...), nil
	}
	return appendRecord(buf, e.Rec)
}

// decodeEntries checks an entry list and keeps each record as the bytes of
// the input that hold it.
func decodeEntries(r *binenc.Reader) []Entry {
	entries := make([]Entry, r.Count(r.U32(), entryMinBytes))
	for i := 0; i < len(entries) && r.Err() == nil; i++ {
		entries[i].Tile = readTile(r)
		entries[i].Seq = r.U64()
		mark := r.Mark()
		entries[i].wire = readWire(r)
		entries[i].enc = r.Since(mark)
	}
	return entries
}

// entriesSize is the encoded size of an entry list whose records are all in
// canonical bytes, and a floor for one that holds map-form records.
func entriesSize(entries []Entry) int {
	n := 4
	for i := range entries {
		n += 8 + 8 + max(len(entries[i].enc), recMinBytes)
	}
	return n
}

func appendEntries(buf []byte, entries []Entry) ([]byte, error) {
	if len(entries) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d entries", ErrValue, len(entries))
	}
	buf = binenc.AppendU32(buf, uint32(len(entries)))
	var err error
	for _, e := range entries {
		if buf, err = appendEntry(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- feature config / confidences ---

// Feature-config flag bits.
const (
	cfgIncludeNum       = 1 << 0
	cfgIncludeResiduals = 1 << 1
	cfgDisableTheta2    = 1 << 2
	cfgIncludeSummary   = 1 << 3
	cfgFlagsMask        = cfgIncludeNum | cfgIncludeResiduals | cfgDisableTheta2 | cfgIncludeSummary
)

func appendFeatureConfig(buf []byte, cfg rssimap.FeatureConfig) ([]byte, error) {
	buf = binenc.AppendF64(buf, cfg.R)
	if cfg.TopK < 0 || cfg.TopK > math.MaxUint16 {
		return nil, fmt.Errorf("%w: TopK %d outside uint16", ErrValue, cfg.TopK)
	}
	buf = binenc.AppendU16(buf, uint16(cfg.TopK))
	if cfg.Tol < math.MinInt16 || cfg.Tol > math.MaxInt16 {
		return nil, fmt.Errorf("%w: Tol %d outside int16", ErrValue, cfg.Tol)
	}
	buf = binenc.AppendU16(buf, uint16(int16(cfg.Tol)))
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

func decodeFeatureConfig(r *binenc.Reader) rssimap.FeatureConfig {
	var cfg rssimap.FeatureConfig
	cfg.R = r.F64()
	cfg.TopK = int(r.U16())
	cfg.Tol = rssimap.Tolerance(r.I16())
	flags := r.U8()
	if flags&^byte(cfgFlagsMask) != 0 {
		r.Fail(fmt.Errorf("%w: unknown feature-config flags %#x", ErrValue, flags))
	}
	cfg.IncludeNum = flags&cfgIncludeNum != 0
	cfg.IncludeResiduals = flags&cfgIncludeResiduals != 0
	cfg.DisableTheta2 = flags&cfgDisableTheta2 != 0
	cfg.IncludeSummary = flags&cfgIncludeSummary != 0
	return cfg
}

// confMinBytes is the fixed per-confidence wire cost.
const confMinBytes = 1 + 8 + 4 + 8 + 4

func appendConfs(buf []byte, confs []rssimap.PointConfidence) ([]byte, error) {
	if len(confs) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d confidences", ErrValue, len(confs))
	}
	buf = binenc.AppendU32(buf, uint32(len(confs)))
	var err error
	for _, c := range confs {
		if buf, err = binenc.AppendStr8(buf, c.MAC); err != nil {
			return nil, err
		}
		buf = binenc.AppendF64(buf, c.Phi)
		if c.Num < 0 || int64(c.Num) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: Num %d outside uint32", ErrValue, c.Num)
		}
		buf = binenc.AppendU32(buf, uint32(c.Num))
		buf = binenc.AppendF64(buf, c.Residual)
		if c.Heard < 0 || int64(c.Heard) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: Heard %d outside uint32", ErrValue, c.Heard)
		}
		buf = binenc.AppendU32(buf, uint32(c.Heard))
	}
	return buf, nil
}

func decodeConfs(r *binenc.Reader) []rssimap.PointConfidence {
	confs := make([]rssimap.PointConfidence, r.Count(r.U32(), confMinBytes))
	for i := 0; i < len(confs) && r.Err() == nil; i++ {
		c := &confs[i]
		c.MAC = r.Str8()
		c.Phi = r.F64()
		c.Num = int(r.U32())
		// Cluster nodes never install contributor trust tables, so the
		// trusted mass always equals the cardinality and is not carried on
		// the wire.
		c.TrustNum = float64(c.Num)
		c.Residual = r.F64()
		c.Heard = int(r.U32())
	}
	return confs
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
	buf = binenc.AppendU32(buf, uint32(len(tiles)))
	var err error
	for _, t := range tiles {
		if buf, err = appendTile(buf, t); err != nil {
			return nil, err
		}
		if buf, err = binenc.AppendStr16(buf, m[t]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func decodeOverrideMap(r *binenc.Reader) map[[2]int]string {
	const overrideMinBytes = 8 + 2
	n := r.Count(r.U32(), overrideMinBytes)
	m := make(map[[2]int]string, n)
	var prev [2]int
	for i := 0; i < n && r.Err() == nil; i++ {
		t := readTile(r)
		if i > 0 && !tileLess(prev, t) {
			r.Fail(fmt.Errorf("%w: overrides not in strict tile order (%v after %v)", ErrValue, t, prev))
		}
		prev = t
		m[t] = r.Str16()
	}
	return m
}

func appendAssignment(buf []byte, a Assignment) ([]byte, error) {
	buf = binenc.AppendU64(buf, a.Epoch)
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
	buf = binenc.AppendU16(buf, uint16(len(members)))
	var err error
	for _, id := range members {
		if buf, err = binenc.AppendStr16(buf, id); err != nil {
			return nil, err
		}
	}
	if buf, err = appendOverrideMap(buf, a.Overrides); err != nil {
		return nil, err
	}
	return appendOverrideMap(buf, a.FollowerOverrides)
}

func decodeAssignment(r *binenc.Reader) Assignment {
	var a Assignment
	a.Epoch = r.U64()
	flags := r.U8()
	if flags&^byte(assignFlagsMask) != 0 {
		r.Fail(fmt.Errorf("%w: unknown assignment flags %#x", ErrValue, flags))
	}
	a.Replicate = flags&assignReplicate != 0
	const memberMinBytes = 2
	nm := r.Count(uint32(r.U16()), memberMinBytes)
	a.Members = make([]string, 0, nm)
	for i := 0; i < nm && r.Err() == nil; i++ {
		id := r.Str16()
		if i > 0 && id <= a.Members[i-1] {
			r.Fail(fmt.Errorf("%w: members not in strict order (%q after %q)", ErrValue, id, a.Members[i-1]))
		}
		a.Members = append(a.Members, id)
	}
	a.Overrides = decodeOverrideMap(r)
	a.FollowerOverrides = decodeOverrideMap(r)
	return a
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
	var buf []byte
	var err error
	switch m := msg.(type) {
	case *Hello:
		buf = binenc.NewFrame(codecVersion, kindHello, 8+len(m.NodeID))
		buf = binenc.AppendU32(buf, m.Deadline)
		buf, err = binenc.AppendStr16(buf, m.NodeID)
	case *Ack:
		buf, err = newResponse(kindAck, 0, m.Status, m.Epoch, m.Msg)
	case *AddReq:
		buf = binenc.NewFrame(codecVersion, kindAdd, 12+entriesSize(m.Entries))
		buf = binenc.AppendU32(buf, m.Deadline)
		buf = binenc.AppendU64(buf, m.Epoch)
		buf, err = appendEntries(buf, m.Entries)
	case *ConfReq:
		buf, err = encodeConfReq(m)
	case *ConfResp:
		buf, err = encodeConfResp(m)
	case *DropReq:
		buf = binenc.NewFrame(codecVersion, kindDrop, 20)
		buf = binenc.AppendU32(buf, m.Deadline)
		buf = binenc.AppendU64(buf, m.Epoch)
		buf, err = appendTile(buf, m.Tile)
	case *AssignReq:
		buf = binenc.NewFrame(codecVersion, kindAssign, 64)
		buf = binenc.AppendU32(buf, m.Deadline)
		buf, err = appendAssignment(buf, m.Assign)
	case *SeqsReq:
		buf = binenc.NewFrame(codecVersion, kindTileSeqs, 4)
		buf = binenc.AppendU32(buf, m.Deadline)
	case *SeqsResp:
		if buf, err = newResponse(kindSeqsResp, 16+len(m.Tiles)*16, m.Status, m.Epoch, m.Msg); err != nil {
			return nil, err
		}
		if len(m.Tiles) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: %d tile seqs", ErrValue, len(m.Tiles))
		}
		tiles := append([]TileSeq(nil), m.Tiles...)
		sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i].Tile, tiles[j].Tile) })
		buf = binenc.AppendU32(buf, uint32(len(tiles)))
		for _, ts := range tiles {
			if buf, err = appendTile(buf, ts.Tile); err != nil {
				return nil, err
			}
			buf = binenc.AppendU64(buf, ts.Seq)
		}
	case *StatsReq:
		buf = binenc.NewFrame(codecVersion, kindStats, 4)
		buf = binenc.AppendU32(buf, m.Deadline)
	case *StatsResp:
		if buf, err = newResponse(kindStatsResp, 48, m.Status, m.Epoch, m.Msg); err != nil {
			return nil, err
		}
		buf = binenc.AppendU32(buf, m.Tiles)
		buf = binenc.AppendU64(buf, m.Entries)
		buf = binenc.AppendU64(buf, m.WALFrames)
		buf = binenc.AppendU64(buf, uint64(m.WALBytes))
		buf = binenc.AppendU64(buf, m.Generation)
		buf = binenc.AppendU64(buf, m.ExpiredRejects)
	default:
		return nil, fmt.Errorf("%w: cannot encode %T", ErrKind, msg)
	}
	if err != nil {
		return nil, err
	}
	return finishFrame(buf)
}

// A confidence query's payload:
//
//	u32 deadlineMs | u64 epoch | feature config | u32 nPoints |
//	nPoints × (tile | f64 x | f64 y | scan)
//
// and its reply's, after the response prefix:
//
//	u32 nItems | nItems × (u8 status | confidence list)
const (
	confPointMinBytes = 8 + 8 + 8 + 2
	confItemMinBytes  = 1 + 4
)

func encodeConfReq(m *ConfReq) ([]byte, error) {
	// The size hint allows a scan of about ten observations per point.
	buf := binenc.NewFrame(codecVersion, kindConf, 32+len(m.Points)*(confPointMinBytes+200))
	buf = binenc.AppendU32(buf, m.Deadline)
	buf = binenc.AppendU64(buf, m.Epoch)
	buf, err := appendFeatureConfig(buf, m.Cfg)
	if err != nil {
		return nil, err
	}
	if len(m.Points) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d query points", ErrValue, len(m.Points))
	}
	buf = binenc.AppendU32(buf, uint32(len(m.Points)))
	for _, p := range m.Points {
		if buf, err = appendTile(buf, p.Tile); err != nil {
			return nil, err
		}
		buf = binenc.AppendF64(buf, p.Pos.X)
		buf = binenc.AppendF64(buf, p.Pos.Y)
		if buf, err = binenc.AppendScan(buf, p.Scan); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func encodeConfResp(m *ConfResp) ([]byte, error) {
	// The size hint allows a few confidences per item.
	buf, err := newResponse(kindConfResp, 4+len(m.Items)*(confItemMinBytes+100), m.Status, m.Epoch, m.Msg)
	if err != nil {
		return nil, err
	}
	if len(m.Items) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d query items", ErrValue, len(m.Items))
	}
	buf = binenc.AppendU32(buf, uint32(len(m.Items)))
	for _, it := range m.Items {
		if buf, err = appendConfs(append(buf, it.Status), it.Confs); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- frame decoder ---

// DecodeFrame parses one wire frame into its typed message. The literals
// below list their fields in wire order: Go evaluates the reads left to
// right, and the sticky reader makes a failed one harmless to those after.
func DecodeFrame(data []byte) (any, error) {
	kind, r, err := header(data)
	if err != nil {
		return nil, err
	}
	var msg any
	switch kind {
	case kindHello:
		msg = &Hello{Deadline: r.U32(), NodeID: r.Str16()}
	case kindAck:
		m := &Ack{}
		m.Status, m.Epoch, m.Msg = readResponse(r)
		msg = m
	case kindAdd:
		msg = &AddReq{Deadline: r.U32(), Epoch: r.U64(), Entries: decodeEntries(r)}
	case kindConf:
		m := &ConfReq{Deadline: r.U32(), Epoch: r.U64(), Cfg: decodeFeatureConfig(r)}
		m.Points = make([]ConfPoint, r.Count(r.U32(), confPointMinBytes))
		for i := 0; i < len(m.Points) && r.Err() == nil; i++ {
			m.Points[i] = ConfPoint{Tile: readTile(r), Pos: geo.Point{X: r.F64(), Y: r.F64()}, Scan: r.Scan()}
		}
		msg = m
	case kindConfResp:
		m := &ConfResp{}
		m.Status, m.Epoch, m.Msg = readResponse(r)
		m.Items = make([]ConfItem, r.Count(r.U32(), confItemMinBytes))
		for i := 0; i < len(m.Items) && r.Err() == nil; i++ {
			m.Items[i] = ConfItem{Status: r.U8(), Confs: decodeConfs(r)}
		}
		msg = m
	case kindDrop:
		msg = &DropReq{Deadline: r.U32(), Epoch: r.U64(), Tile: readTile(r)}
	case kindAssign:
		msg = &AssignReq{Deadline: r.U32(), Assign: decodeAssignment(r)}
	case kindTileSeqs:
		msg = &SeqsReq{Deadline: r.U32()}
	case kindSeqsResp:
		m := &SeqsResp{}
		m.Status, m.Epoch, m.Msg = readResponse(r)
		const tileSeqBytes = 8 + 8
		m.Tiles = make([]TileSeq, r.Count(r.U32(), tileSeqBytes))
		for i := 0; i < len(m.Tiles) && r.Err() == nil; i++ {
			m.Tiles[i] = TileSeq{Tile: readTile(r), Seq: r.U64()}
			if i > 0 && !tileLess(m.Tiles[i-1].Tile, m.Tiles[i].Tile) {
				r.Fail(fmt.Errorf("%w: tile seqs not in strict tile order", ErrValue))
			}
		}
		msg = m
	case kindStats:
		msg = &StatsReq{Deadline: r.U32()}
	case kindStatsResp:
		m := &StatsResp{}
		m.Status, m.Epoch, m.Msg = readResponse(r)
		m.Tiles = r.U32()
		m.Entries = r.U64()
		m.WALFrames = r.U64()
		m.WALBytes = int64(r.U64())
		m.Generation = r.U64()
		m.ExpiredRejects = r.U64()
		msg = m
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrKind, kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return msg, nil
}
