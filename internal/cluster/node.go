// A shard node: one member of the cluster, owning the tiles the assignment
// maps to it. Each node keeps an independent rssimap.Store per tile plus
// the canonical sequence number of every record in it (the store holds each
// record once, losslessly; the tile's entry log is rebuilt from the two for
// snapshots), journals every mutation to its own wal.Lineage (WAL +
// snapshot), and serves the shard-transport RPC over TCP.
//
// Fencing: the node journals the assignment epoch it last accepted, and
// every tile-addressed request carries the sender's epoch. Queries demand
// exact epoch equality *and* that the assignment maps the tile to this
// node; mutations demand exact equality too, so a coordinator holding a
// stale map — or a node that missed an epoch bump — gets statusWrongEpoch
// (with the node's epoch) instead of silently acting on the wrong side of
// a migration. An add is not checked against ownership: that is how a
// migration's new holder receives a tile's history before the commit makes
// it a replica, while queries for the tile still go to the old one. Epochs
// only move forward: an assignment push with a lower epoch is rejected,
// which is what makes split-brain tile ownership impossible even across
// node restarts.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"trajforge/internal/binenc"
	"trajforge/internal/fsx"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/trajectory"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
)

// Node WAL frame types.
const (
	nodeFrameEntries byte = 1 // one applied entry batch (codec entry list)
	nodeFrameDrop    byte = 2 // one dropped tile (codec tile)
	nodeFrameAssign  byte = 3 // one accepted assignment (codec assignment)
)

const (
	nodeWALName  = "node.wal"
	nodeSnapName = "node.snap"

	// transportIdle bounds reads/writes that carry no request deadline.
	transportIdle = 30 * time.Second
)

// NodeOptions configures a shard node.
type NodeOptions struct {
	// Dir is the node's durability directory; empty runs memory-only
	// (no WAL, no snapshot — tests and throwaway nodes).
	Dir string
	// FS is the filesystem seam; nil means the real one.
	FS fsx.FS
	// SyncInterval is the node WAL's group-commit interval; zero fsyncs
	// inline on every append (the chaos explorer's deterministic mode).
	SyncInterval time.Duration
}

// tileState is one tile's replica on this node. The store is the only copy
// of the applied records: it keeps position bits, contributor and int16
// readings losslessly, so the tile's entry log is store record i stamped
// with seqs[i].
type tileState struct {
	store   *rssimap.Store
	lastSeq uint64
	seqs    []uint64 // seqs[i] is the canonical sequence of store record i
}

// entries rebuilds the tile's applied entry log, in applied (= sequence)
// order. Snapshots pay this; ingest does not.
func (ts *tileState) entries(tile [2]int) []Entry {
	recs := ts.store.Records()
	out := make([]Entry, len(recs))
	for i, rec := range recs {
		out[i] = Entry{Tile: tile, Seq: ts.seqs[i], Rec: rec}
	}
	return out
}

// Node is one cluster member.
type Node struct {
	id  string
	cfg shardstore.Config

	mu     sync.RWMutex
	epoch  uint64
	assign Assignment
	tiles  map[[2]int]*tileState
	log    *wal.Lineage // nil on a memory-only node
	dead   error        // first fatal storage failure; the node refuses everything after
	// applyRecs is applyEntriesLocked's reusable run buffer (write lock held).
	applyRecs []rssimap.WireRecord

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	statMu  sync.Mutex
	confs   uint64
	expired uint64
}

// NewNode opens (or recovers) a shard node. With a Dir, state is recovered
// through wal.Lineage: snapshot first, then the WAL replayed on top.
func NewNode(id string, cfg shardstore.Config, opts NodeOptions) (*Node, error) {
	if id == "" {
		return nil, errors.New("cluster: node id must be non-empty")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := rssimap.NewStore(cfg.Store, nil); err != nil {
		return nil, err
	}
	fs := opts.FS
	if fs == nil {
		fs = fsx.OS
	}
	n := &Node{
		id:    id,
		cfg:   cfg,
		tiles: make(map[[2]int]*tileState),
		conns: make(map[net.Conn]struct{}),
	}
	if opts.Dir == "" {
		return n, nil
	}
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: node dir: %w", err)
	}
	log, err := wal.OpenLineage(filepath.Join(opts.Dir, nodeWALName), filepath.Join(opts.Dir, nodeSnapName),
		wal.Options{SyncInterval: opts.SyncInterval, FS: fs})
	if err != nil {
		return nil, err
	}
	n.log = log
	if err := log.Recover(n.loadSnapshot, n.replayFrame); err != nil {
		log.Close()
		return nil, err
	}
	return n, nil
}

// ID returns the node's member id.
func (n *Node) ID() string { return n.id }

// Epoch returns the last assignment epoch the node accepted (and, when
// durable, journaled) — the value fencing compares against.
func (n *Node) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.epoch
}

// replayFrame applies one node WAL frame during recovery. Done both
// finishes a frame's decode and gates its effect; a frame that fails it is
// reported below and applies nothing.
func (n *Node) replayFrame(typ byte, payload []byte) error {
	r := binenc.NewReader(payload)
	switch typ {
	case nodeFrameEntries:
		entries := decodeEntries(r)
		if r.Done() == nil {
			n.applyEntriesLocked(entries)
		}
	case nodeFrameDrop:
		t := readTile(r)
		if r.Done() == nil {
			delete(n.tiles, t)
		}
	case nodeFrameAssign:
		a := decodeAssignment(r)
		// Replay preserves monotonicity: frames were only journaled for
		// accepted (>= current) epochs.
		if r.Done() == nil && a.Epoch >= n.epoch {
			n.epoch, n.assign = a.Epoch, a
		}
	default:
		return fmt.Errorf("%w: unknown node frame type %d", wal.ErrCorrupt, typ)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: node frame type %d: %v", wal.ErrCorrupt, typ, err)
	}
	return nil
}

// encodeLocal completes the entries a frame decoder did not produce — built in
// process from a map-form Rec, or around bytes taken from a log — with their
// canonical bytes and the views over them, so what follows (the journal frame,
// the tile stores) handles one kind of entry.
func encodeLocal(entries []Entry) error {
	for i := range entries {
		e := &entries[i]
		if e.wire.Contributor != nil {
			continue // decoded: Take's answer is nil only after a failure
		}
		if e.enc == nil {
			enc, err := appendRecord(nil, e.Rec)
			if err != nil {
				return err
			}
			e.enc = enc
		}
		r := binenc.NewReader(e.enc)
		e.wire = readWire(r)
		if err := r.Done(); err != nil {
			return err
		}
	}
	return nil
}

// applyEntriesLocked applies a batch, gated per tile on the applied
// sequence high-water mark: an entry with Seq <= lastSeq is a duplicate
// from a retried batch, a replayed WAL, or a resync, and is skipped. This
// is what makes every delivery path idempotent. Every entry must hold its
// views (decoded off a frame, or through encodeLocal).
func (n *Node) applyEntriesLocked(entries []Entry) {
	// Entries go to their tile's store one same-tile run at a time. Tile
	// stores are independent and ingest is sequential, so splitting a tile's
	// entries over several calls builds the same store as one.
	recs := n.applyRecs
	for i := 0; i < len(entries); {
		tile := entries[i].Tile
		ts := n.tiles[tile]
		if ts == nil {
			st, _ := rssimap.NewStore(n.cfg.Store, nil)
			ts = &tileState{store: st}
			n.tiles[tile] = ts
		}
		recs = recs[:0]
		for ; i < len(entries) && entries[i].Tile == tile; i++ {
			e := &entries[i]
			if e.Seq <= ts.lastSeq {
				continue
			}
			ts.lastSeq = e.Seq
			ts.seqs = append(ts.seqs, e.Seq)
			recs = append(recs, e.wire)
		}
		ts.store.AddWire(recs)
	}
	// The views alias the batch's frame; the buffer must not pin it.
	clear(recs[:cap(recs)])
	n.applyRecs = recs[:0]
}

// journal appends one frame to the node WAL. Any failure is fatal: the
// node marks itself dead and refuses all further requests, modelling a
// process whose disk just failed (the chaos explorer kills nodes exactly
// this way). Memory-only nodes journal nothing.
func (n *Node) journalLocked(typ byte, payload []byte) error {
	if n.log == nil {
		return nil
	}
	if err := n.log.Append(typ, payload); err != nil {
		n.dead = fmt.Errorf("cluster: node %s storage failed: %w", n.id, err)
		return n.dead
	}
	return nil
}

// Compact checkpoints the node's lineage with a snapshot of its full state.
func (n *Node) Compact() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.log == nil {
		return nil
	}
	if n.dead != nil {
		return n.dead
	}
	payload, err := n.snapshotLocked()
	if err != nil {
		return err
	}
	return n.log.Checkpoint(payload)
}

// snapshotLocked encodes the full node state with the wire codec —
// deterministic bytes, no gob: assignment, then each tile's applied log
// (rebuilt from its store, one tile at a time) in tile order.
func (n *Node) snapshotLocked() ([]byte, error) {
	buf, err := appendAssignment(nil, n.assign)
	if err != nil {
		return nil, err
	}
	tiles := make([][2]int, 0, len(n.tiles))
	for t := range n.tiles {
		tiles = append(tiles, t)
	}
	sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i], tiles[j]) })
	buf = binenc.AppendU32(buf, uint32(len(tiles)))
	for _, t := range tiles {
		ts := n.tiles[t]
		if buf, err = appendTile(buf, t); err != nil {
			return nil, err
		}
		buf = binenc.AppendU64(buf, ts.lastSeq)
		if buf, err = appendEntries(buf, ts.entries(t)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// tileMinBytes is the fixed per-tile snapshot cost (tile + last seq + entry
// count).
const tileMinBytes = 8 + 8 + 4

func (n *Node) loadSnapshot(payload []byte) error {
	r := binenc.NewReader(payload)
	a := decodeAssignment(r)
	n.epoch, n.assign = a.Epoch, a
	nt := r.Count(r.U32(), tileMinBytes)
	for i := 0; i < nt && r.Err() == nil; i++ {
		t := readTile(r)
		lastSeq := r.U64()
		entries := decodeEntries(r)
		if r.Err() != nil {
			break
		}
		st, err := rssimap.NewStore(n.cfg.Store, nil)
		if err != nil {
			return err
		}
		ts := &tileState{store: st, lastSeq: lastSeq, seqs: make([]uint64, len(entries))}
		views := make([]rssimap.WireRecord, len(entries))
		for j, e := range entries {
			if e.Tile != t {
				return fmt.Errorf("%w: entry for tile %v in tile %v's log", ErrValue, e.Tile, t)
			}
			ts.seqs[j], views[j] = e.Seq, e.wire
		}
		ts.store.AddWire(views)
		n.tiles[t] = ts
	}
	return r.Done()
}

// Serve accepts shard-transport connections until the listener closes.
// Each connection is one request/response stream handled sequentially —
// the coordinator opens one ordered connection for ingest and a small
// pool for queries.
func (n *Node) Serve(ln net.Listener) error {
	n.connMu.Lock()
	if n.closed {
		n.connMu.Unlock()
		ln.Close()
		return errors.New("cluster: node closed")
	}
	n.ln = ln
	n.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		n.connMu.Lock()
		if n.closed {
			n.connMu.Unlock()
			conn.Close()
			return errors.New("cluster: node closed")
		}
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		go n.serveConn(conn)
	}
}

// Listen starts serving on addr and returns the bound address — the
// one-call form cmd/lspserver's node mode and in-process tests use.
func (n *Node) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go n.Serve(ln)
	return ln.Addr(), nil
}

// Close stops serving and closes the WAL.
func (n *Node) Close() error {
	n.connMu.Lock()
	n.closed = true
	if n.ln != nil {
		n.ln.Close()
	}
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.log != nil {
		return n.log.Close()
	}
	return nil
}

func (n *Node) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
	}()
	// One query scratch per connection: a response is written out before
	// the next request is read, so every query reuses it.
	var sc confScratch
	for {
		msg, err := readMsg(conn, time.Now().Add(transportIdle))
		if err != nil {
			return
		}
		resp, dl := n.dispatch(msg, &sc)
		if resp == nil {
			return
		}
		if err := writeMsg(conn, resp, dl); err != nil {
			return
		}
	}
}

// dispatch handles one request, returning the response and the absolute
// deadline for writing it (derived from the request's remaining-time
// field, so a forward whose originating client gave up cannot hold a
// node connection). Requests whose wire deadline carries the expired
// sentinel are refused unworked with statusExpired: the sender's own
// clock said the originating client already gave up, and the relative
// encoding means receiver clock skew cannot fake (or mask) that. sc is
// the connection's query scratch; a ConfResp aliases it until the next
// dispatch on the same connection.
func (n *Node) dispatch(msg any, sc *confScratch) (any, time.Time) {
	now := time.Now()
	switch m := msg.(type) {
	case *Hello:
		return n.guard(m.Deadline, func() any { return n.handleHello() }), wireDeadline(m.Deadline, now, transportIdle)
	case *AddReq:
		return n.guard(m.Deadline, func() any { return n.handleAdd(m) }), wireDeadline(m.Deadline, now, transportIdle)
	case *ConfReq:
		if m.Deadline == deadlineExpiredMs {
			return n.refuseExpired(&ConfResp{}), wireDeadline(m.Deadline, now, transportIdle)
		}
		return n.handleConf(m, sc), wireDeadline(m.Deadline, now, transportIdle)
	case *DropReq:
		return n.guard(m.Deadline, func() any { return n.handleDrop(m) }), wireDeadline(m.Deadline, now, transportIdle)
	case *AssignReq:
		return n.guard(m.Deadline, func() any { return n.handleAssign(m) }), wireDeadline(m.Deadline, now, transportIdle)
	case *SeqsReq:
		if m.Deadline == deadlineExpiredMs {
			return n.refuseExpired(&SeqsResp{}), wireDeadline(m.Deadline, now, transportIdle)
		}
		return n.handleSeqs(), wireDeadline(m.Deadline, now, transportIdle)
	case *StatsReq:
		// Stats are cheap and operators want them even from skewed or
		// overloaded callers; never refuse them.
		return n.handleStats(), wireDeadline(m.Deadline, now, transportIdle)
	default:
		// Protocol violation (a response kind on the request stream):
		// drop the connection.
		return nil, time.Time{}
	}
}

// guard refuses Ack-answered requests whose deadline already expired.
func (n *Node) guard(deadline uint32, handle func() any) any {
	if deadline == deadlineExpiredMs {
		return n.refuseExpired(&Ack{})
	}
	return handle()
}

// refuseExpired stamps resp (a zero-valued typed response) with the
// statusExpired refusal and counts it.
func (n *Node) refuseExpired(resp any) any {
	n.mu.RLock()
	epoch := n.epoch
	n.mu.RUnlock()
	n.statMu.Lock()
	n.expired++
	n.statMu.Unlock()
	const msg = "deadline expired before dispatch"
	switch m := resp.(type) {
	case *Ack:
		m.Status, m.Epoch, m.Msg = statusExpired, epoch, msg
	case *ConfResp:
		m.Status, m.Epoch, m.Msg = statusExpired, epoch, msg
	case *SeqsResp:
		m.Status, m.Epoch, m.Msg = statusExpired, epoch, msg
	}
	return resp
}

func (n *Node) handleHello() *Ack {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.dead != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: n.dead.Error()}
	}
	return &Ack{Status: statusOK, Epoch: n.epoch}
}

// handleAdd ingests a batch. It journals the batch as one WAL frame before
// touching memory, so recovery replays exactly the acked batches; the seq
// gate makes the replay — and any coordinator retry — idempotent.
func (n *Node) handleAdd(m *AddReq) *Ack {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: n.dead.Error()}
	}
	if m.Epoch != n.epoch {
		return &Ack{Status: statusWrongEpoch, Epoch: n.epoch}
	}
	if err := encodeLocal(m.Entries); err != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
	}
	if n.log != nil {
		// Every entry holds its canonical bytes by now, so the journal frame
		// splices what the node received.
		payload, err := appendEntries(make([]byte, 0, entriesSize(m.Entries)), m.Entries)
		if err != nil {
			return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
		}
		if err := n.journalLocked(nodeFrameEntries, payload); err != nil {
			return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
		}
	}
	n.applyEntriesLocked(m.Entries)
	return &Ack{Status: statusOK, Epoch: n.epoch}
}

// confScratch is one connection's reusable query state: the items of the
// last reply (each keeping its confidence buffer for the next request), the
// tile each point resolved to, and one tile's share of the query.
type confScratch struct {
	items []ConfItem
	tiles []*tileState

	idx     []int
	pts     []trajectory.Point
	scans   []wifi.Scan
	answers []rssimap.Answer
}

// handleConf answers a many-point confidence query. Queries fence hard: the
// whole request demands an exact epoch match, and each point a current
// replica claim on its tile — the primary, or (under a replicated
// assignment) the follower, whose tile copy is built from the same
// seq-gated entries in the same canonical order and is therefore
// bit-identical. A point whose tile this node holds no replica of is
// answered statusNotOwner on its own, so the coordinator re-resolves just
// that point: during a migration's ownership flip no node outside the
// replica set at the current epoch will answer for the tile. A config the
// node's tiling cannot answer exactly — a radius beyond its MaxQueryRadius,
// whose halo would be too narrow, or a non-positive radius or top-k — is
// refused whole.
func (n *Node) handleConf(m *ConfReq, sc *confScratch) *ConfResp {
	n.mu.RLock()
	if n.dead != nil {
		resp := &ConfResp{Status: statusFailed, Epoch: n.epoch, Msg: n.dead.Error()}
		n.mu.RUnlock()
		return resp
	}
	if m.Epoch != n.epoch {
		resp := &ConfResp{Status: statusWrongEpoch, Epoch: n.epoch}
		n.mu.RUnlock()
		return resp
	}
	if err := m.Cfg.Validate(); err != nil || m.Cfg.R > n.cfg.MaxQueryRadius {
		resp := &ConfResp{Status: statusFailed, Epoch: n.epoch,
			Msg: fmt.Sprintf("cluster: node %s refuses feature radius %g (max %g), top-k %d", n.id, m.Cfg.R, n.cfg.MaxQueryRadius, m.Cfg.TopK)}
		n.mu.RUnlock()
		return resp
	}
	if len(sc.items) < len(m.Points) {
		sc.items = append(sc.items, make([]ConfItem, len(m.Points)-len(sc.items))...)
		sc.tiles = make([]*tileState, len(sc.items))
	}
	items, tiles := sc.items[:len(m.Points)], sc.tiles[:len(m.Points)]
	for i, p := range m.Points {
		items[i].Status, tiles[i] = statusOK, nil
		if !n.assign.replicaOf(p.Tile, n.id) {
			items[i].Status = statusNotOwner
			continue
		}
		tiles[i] = n.tiles[p.Tile]
	}
	epoch := n.epoch
	n.mu.RUnlock()

	n.statMu.Lock()
	n.confs++
	n.statMu.Unlock()

	for i, p := range m.Points {
		switch {
		case items[i].Status != statusOK:
			items[i].Confs = items[i].Confs[:0]
		case tiles[i] == nil:
			items[i].Confs = rssimap.EmptyConfidences(items[i].Confs, p.Scan, m.Cfg)
		}
	}
	for i, ts := range tiles {
		if ts == nil {
			continue
		}
		// One call to each tile store (which has its own lock, so queries on
		// different tiles of this node never contend) for all of its points.
		sc.idx, sc.pts, sc.scans, sc.answers = sc.idx[:0], sc.pts[:0], sc.scans[:0], sc.answers[:0]
		for j := i; j < len(tiles); j++ {
			if tiles[j] == ts {
				tiles[j] = nil
				sc.idx = append(sc.idx, j)
				sc.pts = append(sc.pts, trajectory.Point{Pos: m.Points[j].Pos})
				sc.scans = append(sc.scans, m.Points[j].Scan)
				sc.answers = append(sc.answers, rssimap.Answer{Confs: items[j].Confs})
			}
		}
		_, err := ts.store.Confidences(context.Background(), sc.answers, sc.pts, sc.scans, m.Cfg, nil)
		for k, j := range sc.idx {
			if items[j].Confs = sc.answers[k].Confs; err != nil {
				items[j].Status, items[j].Confs = statusFailed, items[j].Confs[:0]
			}
		}
	}
	// Neither the tile pointers nor the request's scans may be pinned until
	// the next query.
	clear(tiles)
	clear(sc.scans[:cap(sc.scans)])
	return &ConfResp{Status: statusOK, Epoch: epoch, Items: items}
}

// handleDrop removes a tile the node no longer holds a replica of.
// Journaled: a recovered node must not resurrect a tile it no longer owns.
func (n *Node) handleDrop(m *DropReq) *Ack {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: n.dead.Error()}
	}
	if m.Epoch != n.epoch {
		return &Ack{Status: statusWrongEpoch, Epoch: n.epoch}
	}
	payload, err := appendTile(nil, m.Tile)
	if err != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
	}
	if err := n.journalLocked(nodeFrameDrop, payload); err != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
	}
	delete(n.tiles, m.Tile)
	return &Ack{Status: statusOK, Epoch: n.epoch}
}

// handleAssign installs a new assignment. Higher epochs are journaled
// before they apply; the current epoch is an idempotent re-push; lower
// epochs are fenced off.
func (n *Node) handleAssign(m *AssignReq) *Ack {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: n.dead.Error()}
	}
	switch {
	case m.Assign.Epoch == math.MaxUint64:
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: ErrEpochExhausted.Error()}
	case m.Assign.Epoch < n.epoch:
		return &Ack{Status: statusWrongEpoch, Epoch: n.epoch}
	case m.Assign.Epoch == n.epoch && n.epoch != 0:
		return &Ack{Status: statusOK, Epoch: n.epoch}
	}
	payload, err := appendAssignment(nil, m.Assign)
	if err != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
	}
	if err := n.journalLocked(nodeFrameAssign, payload); err != nil {
		return &Ack{Status: statusFailed, Epoch: n.epoch, Msg: err.Error()}
	}
	n.epoch, n.assign = m.Assign.Epoch, m.Assign.Clone()
	return &Ack{Status: statusOK, Epoch: n.epoch}
}

func (n *Node) handleSeqs() *SeqsResp {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.dead != nil {
		return &SeqsResp{Status: statusFailed, Epoch: n.epoch, Msg: n.dead.Error()}
	}
	resp := &SeqsResp{Status: statusOK, Epoch: n.epoch}
	for t, ts := range n.tiles {
		resp.Tiles = append(resp.Tiles, TileSeq{Tile: t, Seq: ts.lastSeq})
	}
	sort.Slice(resp.Tiles, func(i, j int) bool { return tileLess(resp.Tiles[i].Tile, resp.Tiles[j].Tile) })
	return resp
}

func (n *Node) handleStats() *StatsResp {
	n.mu.RLock()
	defer n.mu.RUnlock()
	resp := &StatsResp{Status: statusOK, Epoch: n.epoch, Tiles: uint32(len(n.tiles))}
	if n.dead != nil {
		resp.Status = statusFailed
		resp.Msg = n.dead.Error()
	}
	for _, ts := range n.tiles {
		resp.Entries += uint64(len(ts.seqs))
	}
	if n.log != nil {
		resp.WALFrames, resp.WALBytes = n.log.Stats()
		resp.Generation = n.log.Generation()
	}
	n.statMu.Lock()
	resp.ExpiredRejects = n.expired
	n.statMu.Unlock()
	return resp
}
