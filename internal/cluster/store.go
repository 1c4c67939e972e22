// The coordinator store: the cluster's rssimap.Backend. It owns the
// canonical record log (the single global insertion order every per-tile
// replica is a restriction of), the tile→node assignment, and one client
// per node. Ingestion fans each record out to its owner tile plus halo
// neighbors — exactly shardstore's replication geometry, so a confidence
// query routes to one tile on one node and returns bits identical to the
// single-process sharded store. Node failures are never fatal to acked
// data: the canonical log is the source of truth, and Resync replays any
// tail a node lost, gated by per-tile sequence numbers.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trajforge/internal/binenc"
	"trajforge/internal/fsx"
	"trajforge/internal/geo"
	"trajforge/internal/parallel"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
)

// Options configures a coordinator store.
type Options struct {
	// Shard is the tile geometry, shared bit-for-bit with shardstore.
	Shard shardstore.Config
	// Nodes maps member id → shard-transport address.
	Nodes map[string]string
	// CallTimeout bounds RPCs that carry no request deadline.
	CallTimeout time.Duration
	// Replicate turns on primary+follower tile placement: ingest batches
	// dual-write to both replicas and reads fail over to the follower
	// when the primary is unreachable.
	Replicate bool
	// Dir is the coordinator's durability directory: the canonical record
	// log and every assignment epoch spill to a WAL + snapshot lineage
	// there, so a coordinator restart recovers from disk instead of
	// needing the seed corpus re-fed. Empty runs memory-only.
	Dir string
	// FS is the filesystem seam for Dir; nil means the real one.
	FS fsx.FS
	// SyncInterval is the coordinator WAL's group-commit interval; zero
	// fsyncs inline on every append.
	SyncInterval time.Duration
	// Retry overrides the transient-transport-error retry policy for
	// coordinator→node RPCs; nil uses defaultShardRetry. A MaxAttempts<=1
	// policy disables retries (what the chaos explorers use to keep
	// crash-point runs fast and deterministic).
	Retry *resilience.RetryPolicy
}

const defaultCallTimeout = 10 * time.Second

// defaultShardRetry keeps a node bounce invisible without stalling the
// query path for seconds: up to 3 tries with 25–250ms decorrelated jitter
// and at most one second of sleeping per call.
func defaultShardRetry() resilience.RetryPolicy {
	return resilience.RetryPolicy{MaxAttempts: 3, Base: 25 * time.Millisecond, Max: 250 * time.Millisecond, Budget: time.Second}
}

// addChunk bounds entries per ingest/install frame, so a migration crash
// leaves a clean prefix and retries stay idempotent via the seq gate.
const addChunk = 128

// migration is one in-flight tile handoff.
type migration struct {
	to string
	// buffer holds entries for the migrating tile that arrived after the
	// freeze; they flush to the winning owner at the post-migration epoch.
	buffer []Entry
}

// Store is the coordinator: a distributed rssimap.Backend.
type Store struct {
	cfg  shardstore.Config
	opts Options

	mu sync.RWMutex
	// The canonical log: log[i] is record i's canonical bytes, a view
	// (capacity clipped) over the ingest frame or recovered payload it arrived
	// in, so appending never copies a record. The log is append-only — neither
	// the views below a length nor the bytes under them ever change — so a
	// copy of the slice header taken under the lock is a stable view outside.
	log       [][]byte
	tileIndex map[[2]int][]int // tile → canonical log indices (halo included)
	assign    Assignment
	migrating map[[2]int]*migration
	nodes     map[string]*nodeClient
	wlog      *wal.Lineage // canonical-log + assignment journal (nil = memory-only)
	walErr    error        // first fatal journal failure; Add fails closed after

	forwards     atomic.Uint64 // confidence RPCs sent to nodes (one per node per query wave)
	halo         atomic.Uint64 // halo (non-owner-tile) entries fanned out
	localHits    atomic.Uint64 // empty-tile queries answered locally
	migrations   atomic.Uint64 // committed migrations
	aborted      atomic.Uint64 // aborted migrations
	resyncs      atomic.Uint64 // completed node resyncs
	replicaReads atomic.Uint64 // queries answered by a follower replica
	retried      atomic.Uint64 // retried node RPC transport attempts
	repairs      atomic.Uint64 // completed re-replications (dead-node repairs)
	rebalances   atomic.Uint64 // completed automatic rebalances
	expired      atomic.Uint64 // forwards refused because the deadline had expired
	refusedBatch atomic.Uint64 // ingest batches refused whole (unencodable, or the journal failed closed)
	refusedRecs  atomic.Uint64 // records those batches held
	repairing    atomic.Bool   // a re-replication is in flight

	// routed, when set, runs after each query wave is grouped by node and
	// before its requests are sent: tests close a node or commit an epoch
	// bump inside that window.
	routed func()
}

var _ rssimap.Backend = (*Store)(nil)
var _ rssimap.ContextBackend = (*Store)(nil)

// NewStore connects a coordinator to its nodes and installs the first
// assignment. Nodes that are unreachable start unsynced and heal through
// Resync; an epoch above every node's journaled epoch — and above the
// coordinator's own journaled epoch, when durable — fences off any
// previous coordinator incarnation.
//
// With Options.Dir, the canonical record log and the assignment recover
// from the coordinator's own WAL/snapshot lineage, and every reachable
// node is resynced from the recovered log at startup: restart needs zero
// seed-corpus replay.
func NewStore(opts Options) (*Store, error) {
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = defaultCallTimeout
	}
	retry := defaultShardRetry()
	if opts.Retry != nil {
		retry = *opts.Retry
	}
	members := make([]string, 0, len(opts.Nodes))
	for id := range opts.Nodes {
		members = append(members, id)
	}
	assign, err := NewAssignment(members)
	if err != nil {
		return nil, err
	}
	assign.Replicate = opts.Replicate && len(members) > 1
	s := &Store{
		cfg:       opts.Shard,
		opts:      opts,
		tileIndex: make(map[[2]int][]int),
		migrating: make(map[[2]int]*migration),
		nodes:     make(map[string]*nodeClient, len(opts.Nodes)),
	}
	for id, addr := range opts.Nodes {
		s.nodes[id] = &nodeClient{id: id, addr: addr, timeout: opts.CallTimeout, retry: retry, retried: &s.retried}
	}

	// Durable coordinators recover the canonical log and the last
	// journaled assignment (epoch, overrides, follower placements) from
	// their own WAL lineage before talking to any node.
	recoveredAssign, err := s.openDurability()
	if err != nil {
		return nil, err
	}
	if recoveredAssign != nil {
		assign = s.reconcileAssignment(assign, *recoveredAssign)
	}

	// Probe every node: the new epoch must exceed whatever any node
	// journaled under a previous coordinator — and whatever this
	// coordinator's own WAL journaled before it last stopped.
	maxEpoch := assign.Epoch - 1
	if recoveredAssign != nil && recoveredAssign.Epoch > maxEpoch {
		maxEpoch = recoveredAssign.Epoch
	}
	for _, nc := range s.sortedNodes() {
		ack, err := nc.call(&Hello{NodeID: nc.id}, time.Time{})
		if err != nil {
			nc.markUnsynced(err)
			continue
		}
		if a, ok := ack.(*Ack); ok && a.Epoch > maxEpoch {
			maxEpoch = a.Epoch
		}
	}
	assign.Epoch = maxEpoch + 1
	s.mu.Lock()
	s.assign = assign
	s.journalAssignLocked(assign)
	s.mu.Unlock()
	s.pushAssignment()

	// A recovered log is the source of truth: replay every node's missing
	// tail from it now, so the cluster serves the acked world without the
	// operator re-feeding anything. Failures leave the node unsynced — the
	// query path and the repair loop heal it later.
	if s.wlog != nil && s.Len() > 0 {
		for _, nc := range s.sortedNodes() {
			if err := s.Resync(nc.id); err != nil {
				nc.markUnsynced(err)
			}
		}
	}
	return s, nil
}

// reconcileAssignment merges a journaled assignment into the fresh one
// built from the configured member set: overrides survive only while
// their target is still a member, and the journaled epoch becomes the
// fencing floor.
func (s *Store) reconcileAssignment(fresh, recovered Assignment) Assignment {
	out := fresh
	out.Epoch = recovered.Epoch
	for t, id := range recovered.Overrides {
		if out.hasMember(id) {
			out.Overrides[t] = id
		}
	}
	for t, id := range recovered.FollowerOverrides {
		if out.hasMember(id) {
			if out.FollowerOverrides == nil {
				out.FollowerOverrides = make(map[[2]int]string)
			}
			out.FollowerOverrides[t] = id
		}
	}
	return out
}

// sortedNodes returns the node clients in id order (deterministic fan-out).
func (s *Store) sortedNodes() []*nodeClient {
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*nodeClient, len(ids))
	for i, id := range ids {
		out[i] = s.nodes[id]
	}
	return out
}

// pushAssignment best-effort pushes the current assignment to every node;
// nodes that miss it heal on the next wrongEpoch retry or Resync.
func (s *Store) pushAssignment() {
	s.mu.RLock()
	assign := s.assign.Clone()
	s.mu.RUnlock()
	for _, nc := range s.sortedNodes() {
		if err := nc.pushAssign(assign); err != nil {
			nc.markUnsynced(err)
		}
	}
}

// Close drops every node connection and closes the coordinator WAL. Node
// processes keep running.
func (s *Store) Close() error {
	for _, nc := range s.nodes {
		nc.close()
	}
	if s.wlog != nil {
		return s.wlog.Close()
	}
	return nil
}

// Config returns the shared tile geometry.
func (s *Store) Config() shardstore.Config { return s.cfg }

// Add ingests the given records; see addBatch.
func (s *Store) Add(records []rssimap.Record) {
	s.addBatch(len(records), func(i int) (string, int) {
		return records[i].Contributor, len(records[i].RSSI)
	}, func(buf []byte, i int) ([]byte, error) {
		return appendRecord(buf, records[i])
	})
}

// AddUploads ingests every point of the given uploads that carries a scan,
// encoding each straight from its scan.
func (s *Store) AddUploads(uploads []*wifi.Upload) {
	scans := rssimap.UploadScans(uploads)
	var scratch wifi.Scan
	s.addBatch(len(scans), func(i int) (string, int) {
		return scans[i].Contributor, len(scans[i].Scan)
	}, func(buf []byte, i int) (_ []byte, err error) {
		buf, scratch, err = appendScanRecord(buf, scans[i], scratch)
		return buf, err
	})
}

// addBatch encodes n records (shape names record i's contributor and counts
// its readings, to size the buffer; encode appends its canonical bytes),
// appends them to the canonical log and fans each out to the nodes holding
// its tiles (owner + halo; with replication on, the follower gets the same
// entries — a dual-write with identical seqs, so either replica serves
// bit-identical answers). Each record is encoded once, outside the lock, into
// one buffer that is the coordinator journal's frame, that the log keeps, and
// that every (tile, replica) entry splices from. Sequence
// numbers are the canonical log positions, assigned under the lock together
// with the per-node outbox order — so every node sees every tile's entries in
// canonical order, and the per-tile replica a node builds is bit-identical to
// the shard the single-process store would build. With durability on, the
// batch is journaled to the coordinator WAL before any node sees it (a
// journal failure fails the ingest closed — nothing is acked the
// coordinator's own log did not capture). Wire errors mark the node unsynced
// (the canonical log replays the tail later); ingestion itself never loses
// data. A batch holding a record the wire codec cannot carry (an RSSI outside
// int16, a MAC over 255 bytes) is refused whole, before it reaches the log;
// refused batches and their records are counted in Stats.
func (s *Store) addBatch(n int, shape func(i int) (contributor string, readings int), encode func(buf []byte, i int) ([]byte, error)) {
	if n == 0 {
		return
	}
	refuse := func() {
		s.refusedBatch.Add(1)
		s.refusedRecs.Add(uint64(n))
	}
	size := 4
	for i := 0; i < n; i++ {
		contributor, readings := shape(i)
		size += recMinBytes + len(contributor) + 20*readings // exact for 17-byte MACs
	}
	frame := binenc.AppendU32(make([]byte, 0, size), uint32(n))
	ends := make([]int, n)
	for i := range ends {
		var err error
		if frame, err = encode(frame, i); err != nil {
			refuse()
			return
		}
		ends[i] = len(frame)
	}
	s.mu.Lock()
	if err := s.journalRecordsLocked(frame); err != nil {
		s.mu.Unlock()
		refuse()
		return
	}
	perNode := make(map[string][]Entry)
	s.appendEncodedLocked(frame, 4, ends, func(idx int, enc []byte, tiles [][2]int) {
		e := Entry{Seq: uint64(idx) + 1, enc: enc}
		for ti, t := range tiles {
			if ti > 0 {
				s.halo.Add(1)
			}
			e.Tile = t
			if mig := s.migrating[t]; mig != nil {
				mig.buffer = append(mig.buffer, e)
				continue
			}
			owner := s.assign.Owner(t)
			perNode[owner] = append(perNode[owner], e)
			if f := s.assign.Follower(t); f != "" && f != owner {
				perNode[f] = append(perNode[f], e)
			}
		}
	})
	epoch := s.assign.Epoch
	ids := make([]string, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	targets := make([]*nodeClient, 0, len(ids))
	for _, id := range ids {
		nc := s.nodes[id]
		// Enqueue under s.mu: outbox order == canonical order.
		nc.enqueue(&AddReq{Epoch: epoch, Entries: perNode[id]})
		targets = append(targets, nc)
	}
	s.mu.Unlock()

	// The nodes drain in parallel. Each node still gets its entries in
	// canonical order: the outbox was filled under s.mu, and flush drains it
	// front first under the node's sendMu.
	fanOut(len(targets), func(k int) {
		if err := targets[k].flush(s); err != nil {
			targets[k].markUnsynced(err)
		}
	})
}

// fanOut runs fn(0) … fn(n-1) at once, the last on the caller's goroutine,
// and returns when every call has. Unlike parallel.ForEach it does not cap
// the calls at GOMAXPROCS: each one waits on a node, not on a core.
func fanOut(n int, fn func(k int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for k := 0; k < n-1; k++ {
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	fn(n - 1)
	wg.Wait()
}

// Len returns the number of canonical records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.log)
}

// Records returns every canonical record in insertion order, decoded from
// the log into the map form.
func (s *Store) Records() []rssimap.Record {
	s.mu.RLock()
	log := s.log
	s.mu.RUnlock()
	out := make([]rssimap.Record, len(log))
	for i, enc := range log {
		out[i] = decodeRecord(binenc.NewReader(enc))
	}
	return out
}

// ErrExpired reports a shard request refused because its deadline had
// already passed — at the coordinator before dispatch, or at the node on
// arrival. A typed refusal, never a partial answer: callers treat it the
// way they treat context.DeadlineExceeded.
var ErrExpired = errors.New("cluster: deadline expired before dispatch")

// route is one point of a confidence query as the coordinator sends it:
// the replicas that may answer it, in the order to try them, and which of
// them is the tile's primary (an answer from the other is a replica read).
type route struct {
	i       int // index into the query's points
	order   []*nodeClient
	next    int // order[next] is the replica the next request goes to
	primary *nodeClient
}

// routePoints resolves the given points under one read of the coordinator
// lock: each point's tile, and either a local answer (an empty tile is
// bit-identical to a node holding no records for it) or its replicas — the
// primary, then (with replication on) the follower. A migrating tile has no
// settled follower, so it is read from its primary only; an unsynced
// primary with a healthy follower is tried second, so the query does not
// stall on a resync attempt.
func (s *Store) routePoints(pts []ConfPoint, pending []int, out [][]rssimap.PointConfidence, cfg rssimap.FeatureConfig) ([]route, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	routes := make([]route, 0, len(pending))
	for _, i := range pending {
		tile := s.cfg.TileOf(pts[i].Pos)
		pts[i].Tile = tile
		if len(s.tileIndex[tile]) == 0 {
			s.localHits.Add(1)
			out[i] = shardstore.EmptyConfidences(nil, pts[i].Scan, cfg)
			continue
		}
		owner := s.assign.Owner(tile)
		primary := s.nodes[owner]
		if primary == nil {
			return nil, 0, fmt.Errorf("cluster: tile %v has no owner", tile)
		}
		r := route{i: i, order: []*nodeClient{primary}, primary: primary}
		if f := s.assign.Follower(tile); f != "" && f != owner && s.migrating[tile] == nil {
			if follower := s.nodes[f]; primary.isUnsynced() && !follower.isUnsynced() {
				r.order = []*nodeClient{follower, primary}
			} else {
				r.order = append(r.order, follower)
			}
		}
		routes = append(routes, r)
	}
	return routes, s.assign.Epoch, nil
}

// confGroup is one node's share of a query wave: the routes sent to it and
// what came back.
type confGroup struct {
	nc     *nodeClient
	routes []route
	resp   any
	err    error
}

// groupRoutes gathers the routes by the replica each goes to next, in node
// id order.
func groupRoutes(routes []route) []*confGroup {
	var groups []*confGroup
	for _, r := range routes {
		nc := r.order[r.next]
		k := 0
		for k < len(groups) && groups[k].nc != nc {
			k++
		}
		if k == len(groups) {
			groups = append(groups, &confGroup{nc: nc})
		}
		groups[k].routes = append(groups[k].routes, r)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].nc.id < groups[b].nc.id })
	return groups
}

// sendConf sends one node its share of a query as one request, healing the
// node first when it is unsynced. A transport failure marks it unsynced.
func (s *Store) sendConf(g *confGroup, pts []ConfPoint, epoch uint64, cfg rssimap.FeatureConfig, deadline time.Time) (any, error) {
	nc := g.nc
	if nc.isUnsynced() {
		if err := s.Resync(nc.id); err != nil {
			return nil, err
		}
	}
	req := &ConfReq{Epoch: epoch, Cfg: cfg, Points: make([]ConfPoint, len(g.routes))}
	for k, r := range g.routes {
		req.Points[k] = pts[r.i]
	}
	s.forwards.Add(1)
	req.Deadline = deadlineMs(deadline, time.Now())
	resp, err := nc.call(req, deadline)
	if err != nil {
		nc.markUnsynced(err)
		return nil, err
	}
	return resp, nil
}

// forwardConfs answers the point-confidence queries of many points with one
// request per node, sent to all nodes at once. Each point keeps the rules a
// lone query follows: an empty tile is answered locally; a point whose node
// fails, cannot be reached, or refuses it fails over to its follower
// replica (both replicas apply the same entries under the same seqs, so
// either answer is bit-identical); a wrong-epoch or not-owner refusal (a
// migration can commit between routing and the node answering) re-pushes
// the assignment and routes the point again. A query whose deadline already
// passed is refused with ErrExpired before any node sees it. out[i] answers
// pts[i].
func (s *Store) forwardConfs(ctx context.Context, pts []ConfPoint, cfg rssimap.FeatureConfig) ([][]rssimap.PointConfidence, error) {
	var deadline time.Time
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			s.expired.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrExpired, err)
		}
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
	}
	out := make([][]rssimap.PointConfidence, len(pts))
	pending := make([]int, len(pts))
	for i := range pending {
		pending[i] = i
	}
	var lastErr error
	for attempt := 0; attempt < 4 && len(pending) > 0; attempt++ {
		routes, epoch, err := s.routePoints(pts, pending, out, cfg)
		if err != nil {
			return nil, err
		}
		pending = pending[:0]
		repush := false
		// Each wave sends every unanswered route to its next replica; a
		// route has at most two, so at most two waves run.
		for len(routes) > 0 {
			groups := groupRoutes(routes)
			if s.routed != nil {
				s.routed()
			}
			fanOut(len(groups), func(k int) {
				groups[k].resp, groups[k].err = s.sendConf(groups[k], pts, epoch, cfg, deadline)
			})
			routes = routes[:0] // the groups hold copies
			failover := func(r route) {
				if r.next++; r.next < len(r.order) {
					routes = append(routes, r)
				} else {
					pending = append(pending, r.i)
				}
			}
			for _, g := range groups {
				if g.err != nil {
					lastErr = g.err
					for _, r := range g.routes {
						failover(r)
					}
					continue
				}
				cr, ok := g.resp.(*ConfResp)
				if !ok {
					return nil, fmt.Errorf("%w: %T to a confidence query", ErrKind, g.resp)
				}
				switch cr.Status {
				case statusOK:
					if len(cr.Items) != len(g.routes) {
						return nil, fmt.Errorf("%w: %d answers to %d points", ErrKind, len(cr.Items), len(g.routes))
					}
					for k, r := range g.routes {
						switch cr.Items[k].Status {
						case statusOK:
							if g.nc != r.primary {
								s.replicaReads.Add(1)
							}
							out[r.i] = cr.Items[k].Confs
						case statusNotOwner:
							lastErr = fmt.Errorf("cluster: node %s does not hold tile %v at epoch %d", g.nc.id, pts[r.i].Tile, epoch)
							repush = true
							pending = append(pending, r.i)
						default:
							lastErr = fmt.Errorf("cluster: node %s query failed: status %d", g.nc.id, cr.Items[k].Status)
							failover(r)
						}
					}
				case statusExpired:
					s.expired.Add(1)
					return nil, fmt.Errorf("%w: node %s: %s", ErrExpired, g.nc.id, cr.Msg)
				case statusWrongEpoch, statusNotOwner:
					// The assignment moved under us (or the node is behind).
					lastErr = fmt.Errorf("cluster: node %s fenced query (status %d, node epoch %d)", g.nc.id, cr.Status, cr.Epoch)
					repush = true
					for _, r := range g.routes {
						pending = append(pending, r.i)
					}
				default:
					// statusFailed (dead storage) and the like: the replica may
					// still answer.
					lastErr = fmt.Errorf("cluster: node %s query failed: %s", g.nc.id, cr.Msg)
					for _, r := range g.routes {
						failover(r)
					}
				}
			}
		}
		if repush {
			s.pushAssignment()
		}
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("cluster: confidence query exhausted retries: %w", lastErr)
	}
	return out, nil
}

// ConfidenceTol evaluates Eq. 7 for one reported (mac, rssi) at o on the
// node owning o's tile. A single-observation TopK-1 confidence query runs
// the identical kernel (same θ1/θ2 weights, same accumulation order), so
// the forwarded answer is bit-identical to the local store's.
func (s *Store) ConfidenceTol(o geo.Point, mac string, rssi int, r float64, tol rssimap.Tolerance) (phi float64, num int) {
	confs, err := s.forwardConfs(context.Background(), []ConfPoint{{Pos: o, Scan: wifi.Scan{{MAC: mac, RSSI: rssi}}}},
		rssimap.FeatureConfig{R: r, TopK: 1, Tol: tol})
	if err != nil || len(confs[0]) == 0 {
		return 0, 0
	}
	return confs[0][0].Phi, confs[0][0].Num
}

// Confidence evaluates Eq. 7 with exact RPD matching.
func (s *Store) Confidence(o geo.Point, mac string, rssi int, r float64) (phi float64, num int) {
	return s.ConfidenceTol(o, mac, rssi, r, 0)
}

// PointConfidences verifies the TopK strongest observations of one scan
// against the node owning o's tile.
func (s *Store) PointConfidences(o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	confs, err := s.forwardConfs(context.Background(), []ConfPoint{{Pos: o, Scan: scan}}, cfg)
	if err != nil {
		return shardstore.EmptyConfidences(nil, scan, cfg)
	}
	return confs[0]
}

// PointConfidencesInto is PointConfidences appending into dst[:0].
func (s *Store) PointConfidencesInto(dst []rssimap.PointConfidence, o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	return append(dst[:0], s.PointConfidences(o, scan, cfg)...)
}

// checkFeatureRadius rejects feature configs the tile geometry cannot
// answer exactly — the same bound shardstore enforces.
func (s *Store) checkFeatureRadius(cfg rssimap.FeatureConfig) error {
	if cfg.R > s.cfg.MaxQueryRadius {
		return fmt.Errorf("cluster: feature radius %g exceeds MaxQueryRadius %g", cfg.R, s.cfg.MaxQueryRadius)
	}
	return nil
}

// Features computes the Eq. 8 feature vector of an upload, sending each
// node one request for the points whose tiles it holds. Aggregation runs
// through rssimap.FeaturesFrom, so the vector is bit-identical to the local
// backends'.
func (s *Store) Features(u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	return s.FeaturesContext(context.Background(), u, cfg)
}

// FeaturesContext is Features carrying the originating request's context:
// its deadline rides every forwarded RPC (the wire's remaining-time field
// and the conn deadlines), so admission control accounts remote time and a
// shed request stops consuming node capacity.
func (s *Store) FeaturesContext(ctx context.Context, u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	if err := s.checkFeatureRadius(cfg); err != nil {
		return nil, err
	}
	// FeaturesFrom validates the upload before asking for its first point;
	// that first call queries every point at once.
	var confs [][]rssimap.PointConfidence
	var rpcErr error
	feat, err := rssimap.FeaturesFrom(u, cfg, func(i int, _ geo.Point, scan wifi.Scan) []rssimap.PointConfidence {
		if confs == nil && rpcErr == nil {
			pts := make([]ConfPoint, len(u.Scans))
			for k := range pts {
				pts[k] = ConfPoint{Pos: u.Traj.Points[k].Pos, Scan: u.Scans[k]}
			}
			confs, rpcErr = s.forwardConfs(ctx, pts, cfg)
		}
		if rpcErr != nil {
			return shardstore.EmptyConfidences(nil, scan, cfg)
		}
		return confs[i]
	})
	if rpcErr != nil {
		return nil, rpcErr
	}
	return feat, err
}

// FeaturesBatch extracts the feature vectors of many uploads across the
// worker pool; each upload's queries fan out to whichever nodes own its
// tiles. Results are ordered by upload index and bit-identical to Features
// run serially.
func (s *Store) FeaturesBatch(uploads []*wifi.Upload, cfg rssimap.FeatureConfig) ([][]float64, error) {
	for i, u := range uploads {
		if err := u.Validate(); err != nil {
			return nil, fmt.Errorf("upload %d: rssimap: %w", i, err)
		}
	}
	if err := s.checkFeatureRadius(cfg); err != nil {
		return nil, err
	}
	out := make([][]float64, len(uploads))
	var firstErr error
	var errOnce sync.Once
	parallel.ForEachChunk(len(uploads), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			feat, err := s.Features(uploads[i], cfg)
			if err != nil {
				errOnce.Do(func() { firstErr = fmt.Errorf("upload %d: %w", i, err) })
				return
			}
			out[i] = feat
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Resync replays onto one node everything the canonical log says it should
// hold — the tiles it owns plus, with replication on, the tiles it follows:
// push the current assignment, read the node's per-tile sequence high-water
// marks, send every missing tail entry, and drop tiles the node no longer
// holds a replica of. Idempotent (the seq gate skips what the node kept),
// and the reason a node crash is never data loss.
func (s *Store) Resync(id string) error {
	nc := s.nodes[id]
	if nc == nil {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	nc.sendMu.Lock()
	defer nc.sendMu.Unlock()

	s.mu.RLock()
	assign := s.assign.Clone()
	owned := make(map[[2]int][]int)
	for t, idxs := range s.tileIndex {
		if len(idxs) > 0 && assign.replicaOf(t, id) && s.migrating[t] == nil {
			owned[t] = idxs
		}
	}
	log := s.log
	s.mu.RUnlock()

	if err := nc.pushAssignLocked(assign); err != nil {
		return err
	}
	resp, err := nc.callLocked(&SeqsReq{}, time.Time{})
	if err != nil {
		return err
	}
	sr, ok := resp.(*SeqsResp)
	if !ok || sr.Status != statusOK {
		return fmt.Errorf("cluster: node %s seqs read failed", id)
	}
	nodeSeq := make(map[[2]int]uint64, len(sr.Tiles))
	for _, ts := range sr.Tiles {
		nodeSeq[ts.Tile] = ts.Seq
	}

	// Replay missing tails, chunked, in canonical order per tile.
	var batch []Entry
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		req := &AddReq{Epoch: assign.Epoch, Entries: batch}
		ack, err := nc.ackCallLocked(req)
		if err != nil {
			return err
		}
		if ack.Status != statusOK {
			return fmt.Errorf("cluster: resync add to %s: status %d %s", id, ack.Status, ack.Msg)
		}
		batch = batch[:0]
		return nil
	}
	tiles := make([][2]int, 0, len(owned))
	for t := range owned {
		tiles = append(tiles, t)
	}
	sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i], tiles[j]) })
	for _, t := range tiles {
		have := nodeSeq[t]
		for _, idx := range owned[t] {
			seq := uint64(idx) + 1
			if seq <= have {
				continue
			}
			batch = append(batch, Entry{Tile: t, Seq: seq, enc: log[idx]})
			if len(batch) >= addChunk {
				if err := flushBatch(); err != nil {
					return err
				}
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}

	// Drop tiles the node reported but no longer owns.
	for _, ts := range sr.Tiles {
		if _, ok := owned[ts.Tile]; ok {
			continue
		}
		ack, err := nc.ackCallLocked(&DropReq{Epoch: assign.Epoch, Tile: ts.Tile})
		if err != nil {
			return err
		}
		if ack.Status != statusOK && ack.Status != statusWrongEpoch {
			return fmt.Errorf("cluster: resync drop %v on %s: status %d %s", ts.Tile, id, ack.Status, ack.Msg)
		}
	}

	// Only declare the node healthy if the world didn't move mid-resync.
	s.mu.RLock()
	current := s.assign.Epoch
	s.mu.RUnlock()
	if current != assign.Epoch {
		return fmt.Errorf("cluster: epoch moved during resync of %s", id)
	}
	nc.clearUnsynced()
	s.resyncs.Add(1)
	return nil
}

// NodeStats is one node's view in the coordinator's stats.
type NodeStats struct {
	ID string `json:"id"`
	// Tiles is the number of non-empty tiles the assignment maps here as
	// primary.
	Tiles int `json:"tiles"`
	// FollowerTiles is the number of non-empty tiles this node follows
	// (second replica); zero with replication off.
	FollowerTiles int `json:"follower_tiles,omitempty"`
	// Entries is the number of (tile, record) replicas assigned here as
	// primary.
	Entries  int  `json:"entries"`
	Unsynced bool `json:"unsynced,omitempty"`
}

// StoreStats summarises cluster state for /v1/stats.
type StoreStats struct {
	Epoch   uint64      `json:"epoch"`
	Records int         `json:"records"`
	Nodes   []NodeStats `json:"nodes"`
	// Forwarded counts confidence RPCs sent to nodes: one per node a
	// query's points go to, not one per point.
	Forwarded         uint64 `json:"forwarded_requests"`
	HaloUpdates       uint64 `json:"halo_updates"`
	LocalEmptyAnswers uint64 `json:"local_empty_answers"`
	Migrations        uint64 `json:"migrations"`
	AbortedMigrations uint64 `json:"aborted_migrations"`
	Resyncs           uint64 `json:"resyncs"`
	MigrationInFlight bool   `json:"migration_in_flight"`
	Replicated        bool   `json:"replicated,omitempty"`
	ReplicaReads      uint64 `json:"replica_reads,omitempty"`
	RetriedCalls      uint64 `json:"retried_calls,omitempty"`
	Repairs           uint64 `json:"repairs,omitempty"`
	Rebalances        uint64 `json:"rebalances,omitempty"`
	ExpiredRejects    uint64 `json:"expired_rejects,omitempty"`
	Degraded          bool   `json:"degraded,omitempty"`
	DegradedReason    string `json:"degraded_reason,omitempty"`
	WALFrames         uint64 `json:"wal_frames,omitempty"`
	WALBytes          uint64 `json:"wal_bytes,omitempty"`
	Generation        uint64 `json:"wal_generation,omitempty"`
	// RefusedBatches counts ingest batches refused whole — one held a record
	// the wire codec cannot carry, or the coordinator journal had failed
	// closed — and RefusedRecords the records they held.
	RefusedBatches uint64 `json:"refused_batches,omitempty"`
	RefusedRecords uint64 `json:"refused_records,omitempty"`
}

// Stats returns a snapshot of cluster state from the coordinator's view —
// no node RPCs, so it is safe on the serving path.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	st := StoreStats{
		Epoch:             s.assign.Epoch,
		Records:           len(s.log),
		MigrationInFlight: len(s.migrating) > 0,
		Replicated:        s.assign.Replicate,
	}
	perNode := make(map[string]*NodeStats, len(s.nodes))
	for _, id := range s.assign.Members {
		perNode[id] = &NodeStats{ID: id}
	}
	for t, idxs := range s.tileIndex {
		if len(idxs) == 0 {
			continue
		}
		owner := s.assign.Owner(t)
		if ns := perNode[owner]; ns != nil {
			ns.Tiles++
			ns.Entries += len(idxs)
		}
		if f := s.assign.Follower(t); f != "" && f != owner {
			if ns := perNode[f]; ns != nil {
				ns.FollowerTiles++
			}
		}
	}
	if s.wlog != nil {
		frames, bytes := s.wlog.Stats()
		st.WALFrames, st.WALBytes = frames, uint64(bytes)
		st.Generation = s.wlog.Generation()
	}
	s.mu.RUnlock()
	ids := make([]string, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ns := perNode[id]
		if nc := s.nodes[id]; nc != nil {
			ns.Unsynced = nc.isUnsynced()
		}
		st.Nodes = append(st.Nodes, *ns)
	}
	st.Forwarded = s.forwards.Load()
	st.HaloUpdates = s.halo.Load()
	st.LocalEmptyAnswers = s.localHits.Load()
	st.Migrations = s.migrations.Load()
	st.AbortedMigrations = s.aborted.Load()
	st.Resyncs = s.resyncs.Load()
	st.ReplicaReads = s.replicaReads.Load()
	st.RetriedCalls = s.retried.Load()
	st.Repairs = s.repairs.Load()
	st.Rebalances = s.rebalances.Load()
	st.ExpiredRejects = s.expired.Load()
	st.RefusedBatches = s.refusedBatch.Load()
	st.RefusedRecords = s.refusedRecs.Load()
	st.Degraded, st.DegradedReason = s.HealthStatus()
	return st
}

// HealthStatus reports whether the cluster is degraded — still serving,
// but with reduced redundancy or durability — and why: the coordinator's
// own journal failed, a migration or repair is mid-flight, or some
// non-empty tile currently has no synced replica at all.
func (s *Store) HealthStatus() (degraded bool, reason string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.walErr != nil {
		return true, s.walErr.Error()
	}
	if s.repairing.Load() {
		return true, "re-replication in flight"
	}
	if len(s.migrating) > 0 {
		return true, "migration in flight"
	}
	for t, idxs := range s.tileIndex {
		if len(idxs) == 0 {
			continue
		}
		owner := s.assign.Owner(t)
		live := false
		if nc := s.nodes[owner]; nc != nil && !nc.isUnsynced() {
			live = true
		}
		if !live {
			if f := s.assign.Follower(t); f != "" && f != owner {
				if nc := s.nodes[f]; nc != nil && !nc.isUnsynced() {
					live = true
				}
			}
		}
		if !live {
			return true, fmt.Sprintf("tile %v has no live replica", t)
		}
	}
	return false, ""
}

// Assignment returns the current assignment (a copy).
func (s *Store) Assignment() Assignment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.assign.Clone()
}

// BusiestTile returns the non-empty tile with the most replicas.
func (s *Store) BusiestTile() ([2]int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best [2]int
	bestN := 0
	for t, idxs := range s.tileIndex {
		if len(idxs) > bestN || (len(idxs) == bestN && bestN > 0 && tileLess(t, best)) {
			best, bestN = t, len(idxs)
		}
	}
	return best, bestN > 0
}
