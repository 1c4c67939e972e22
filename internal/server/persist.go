package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trajforge/internal/fsx"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/trust"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
)

// WAL frame types.
const (
	frameAccepted byte = 1 // payload: one accepted upload (see walcodec.go)
	frameRejected byte = 2 // empty payload; only bumps the rejected counter
	// Streaming-session lifecycle frames. A session's history in the log is
	// open → chunk* → verdict; recovery reassembles in-flight sessions from
	// the frames after the last snapshot (plus the snapshot's own session
	// list) and either resumes or aborts them.
	frameSessionOpen    byte = 3 // payload: session id + claimed mode
	frameSessionChunk   byte = 4 // payload: one chunk as an upload frame (id = session id)
	frameSessionVerdict byte = 5 // payload: session id + outcome (rejected/accepted/aborted)
	frameSessionReject  byte = 6 // payload: session id; early-exit fired, session still open
)

const (
	walFileName  = "records.wal"
	snapFileName = "snapshot.bin"
)

// PersistOptions tunes the durability layer.
type PersistOptions struct {
	// SyncInterval is the WAL group-commit interval; zero means the 2ms
	// default. Negative fsyncs every append inline — fully durable and,
	// because no background flusher runs, a deterministic filesystem-op
	// sequence, which is what the chaos crash-point explorer needs.
	SyncInterval time.Duration
	// QueueDepth bounds the async append queue. Uploads block once the
	// queue is full — the backpressure that keeps a slow disk from letting
	// unacknowledged frames pile up without bound. Default 256.
	QueueDepth int
	// CompactBytes auto-compacts (snapshot + log reset) once the WAL grows
	// past this size. Default 64 MiB; negative disables auto-compaction.
	CompactBytes int64
	// FS is the filesystem the WAL and snapshots live on; nil means the
	// real one. Fault-injection and chaos tests substitute fsx/faultfs.
	FS fsx.FS
	// Breaker, when non-nil, arms the fail-closed circuit breaker around
	// the persistence path: WAL append/sync/compact failures open it, the
	// service sheds uploads with 503 while it is open, and after the
	// cooldown a half-open probe attempts a full compaction — the one
	// operation that both proves the disk is healthy again and repairs
	// the frames dropped while the breaker was open (the snapshot
	// captures the complete in-memory state). Nil keeps the legacy
	// fail-open behaviour: verdicts keep flowing from memory and errors
	// are only surfaced in /v1/stats.
	Breaker *resilience.BreakerConfig
}

func (o *PersistOptions) setDefaults() {
	if o.SyncInterval == 0 {
		o.SyncInterval = 2 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = fsx.OS
	}
}

// RecoveredState is what OpenPersistence reconstructed from disk: the last
// snapshot plus every WAL frame appended after it. The caller seeds an
// empty store backend from Records; Service.Restore applies the rest
// (counters, history, sessions, trust state, replayed uploads).
type RecoveredState struct {
	// Accepted and Rejected are the provider counters, WAL frames included.
	Accepted, Rejected int
	// Records is the crowdsourced store content at snapshot time.
	Records []rssimap.Record
	// History is the accepted-trajectory history at snapshot time.
	History []*trajectory.T
	// Uploads are the accepted uploads replayed from the WAL, in ingestion
	// order. Their trajectories are NOT in History and their scans are NOT
	// in Records — Service.Restore applies them through the same code path
	// a live accept takes, so recovery is equivalent to re-receiving them,
	// except that a store which recovered them itself is not written twice.
	Uploads []*wifi.Upload
	// UploadScores holds the WiFi detector's pFake verdict score for each
	// entry of Uploads (same index). The trust ledger's agreement
	// statistic feeds on the score, so replay must hand Restore the exact
	// value the live accept saw; pre-provenance frames recover as 0.
	UploadScores []float64
	// Sessions are the streaming sessions still in flight at crash time:
	// their journaled chunks, with no verdict frame yet. Service.Restore
	// resumes each one (or aborts it with a journaled verdict when the
	// restarted configuration cannot hold it).
	Sessions []stream.SessionState
	// Trust is the trust-pipeline state (ledger, quarantine, drift) at
	// snapshot time; nil for pre-provenance snapshots or when the trust
	// pipeline is disabled. WAL replay through Service.Restore re-applies
	// post-snapshot uploads on top of it, event-time driven, so the
	// recovered pipeline matches the crashed one bit-identically.
	Trust *trust.PipelineState
}

// Empty reports whether nothing was recovered (fresh data directory).
func (st *RecoveredState) Empty() bool {
	return st.Accepted == 0 && st.Rejected == 0 &&
		len(st.Records) == 0 && len(st.History) == 0 &&
		len(st.Uploads) == 0 && len(st.Sessions) == 0
}

// snapshotData is the gob-encoded snapshot payload. gob stores float64 and
// time.Time losslessly, so a snapshot roundtrip keeps features bit-identical.
type snapshotData struct {
	Accepted, Rejected int
	Records            []rssimap.Record
	History            []*trajectory.T
	Sessions           []stream.SessionState
	// Trust is nil when the trust pipeline is disabled; gob decodes old
	// snapshots (no Trust field) to nil, keeping them recoverable.
	Trust *trust.PipelineState
}

// entryKind discriminates queued WAL appends. The zero value is a batch
// verdict, so the pre-streaming enqueue sites read unchanged.
type entryKind int

const (
	entryVerdict entryKind = iota
	entrySessionOpen
	entrySessionChunk
	entrySessionVerdict
	entrySessionReject
)

// persistEntry is one queued WAL append; a barrier entry (barrier != nil)
// carries no frame and is closed once everything before it is on disk.
type persistEntry struct {
	kind        entryKind
	accepted    bool            // entryVerdict: upload accepted?
	upload      *wifi.Upload    // accepted verdict payload, or one session chunk
	sessID      string          // session open/verdict frames
	mode        trajectory.Mode // session open frames
	contributor string          // session open frames: uploader identity
	outcome     byte            // session verdict frames
	pFake       float64         // detector score of accepted verdicts
	barrier     chan struct{}
}

// Persistence is the provider's durability layer: a write-ahead log of
// verdicts plus periodic snapshots. Accepted uploads are framed into the
// log asynchronously (bounded queue, group-committed fsync); compaction
// snapshots the full provider state and resets the log.
type Persistence struct {
	opts PersistOptions
	log  *wal.Lineage

	recovered *RecoveredState

	svc       *Service // bound by server.New
	queue     chan persistEntry
	compactCh chan chan error
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
	buf       []byte // appender goroutine scratch

	lastSnapshot atomic.Int64 // UnixNano of the last committed snapshot

	errMu    sync.Mutex
	firstErr error
	errCount atomic.Int64 // background append/sync/compact failures

	// breaker guards the persistence path when PersistOptions.Breaker is
	// set; healedErrs is the errCount value covered by the last committed
	// snapshot — errors at or below it were repaired by a compaction, so
	// only errCount > healedErrs means acked-durable is compromised.
	breaker    *resilience.Breaker
	healedErrs atomic.Int64
}

// OpenPersistence opens (or initialises) the data directory and recovers
// the provider state from the snapshot and WAL through wal.Lineage, which
// owns the generation protocol.
func OpenPersistence(dir string, opts PersistOptions) (*Persistence, error) {
	opts.setDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	syncInterval := opts.SyncInterval
	if syncInterval < 0 {
		syncInterval = 0 // wal: zero = inline fsync per append
	}
	log, err := wal.OpenLineage(filepath.Join(dir, walFileName), filepath.Join(dir, snapFileName),
		wal.Options{SyncInterval: syncInterval, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	p := &Persistence{
		opts:      opts,
		log:       log,
		queue:     make(chan persistEntry, opts.QueueDepth),
		compactCh: make(chan chan error),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if opts.Breaker != nil {
		p.breaker = resilience.NewBreaker(*opts.Breaker)
	}
	if err := p.load(); err != nil {
		log.Close()
		return nil, err
	}
	return p, nil
}

// load rebuilds the recovered state: the snapshot, then every frame the
// log holds on top of it.
func (p *Persistence) load() error {
	st := &RecoveredState{}
	pending := newPendingSessions()
	err := p.log.Recover(func(payload []byte) error {
		var snap snapshotData
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
			return err
		}
		st.Accepted, st.Rejected = snap.Accepted, snap.Rejected
		st.Records, st.History = snap.Records, snap.History
		st.Trust = snap.Trust
		for i := range snap.Sessions {
			if err := pending.open(snap.Sessions[i]); err != nil {
				return fmt.Errorf("sessions: %v", err)
			}
		}
		return nil
	}, func(typ byte, payload []byte) error {
		return replayFrame(st, pending, typ, payload)
	})
	if err != nil {
		return err
	}
	st.Sessions = pending.inFlight()
	p.recovered = st
	return nil
}

// replayFrame applies one WAL frame to the state under recovery.
func replayFrame(st *RecoveredState, pending *pendingSessions, typ byte, payload []byte) error {
	switch typ {
	case frameAccepted:
		u, pFake, err := decodeUpload(payload)
		if err != nil {
			return err
		}
		st.Uploads = append(st.Uploads, u)
		st.UploadScores = append(st.UploadScores, pFake)
		st.Accepted++
	case frameRejected:
		st.Rejected++
	case frameSessionOpen:
		id, mode, contributor, err := decodeSessionOpen(payload)
		if err != nil {
			return err
		}
		if err := pending.open(stream.SessionState{ID: id, Mode: mode, Contributor: contributor}); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
	case frameSessionChunk:
		chunk, _, err := decodeUpload(payload)
		if err != nil {
			return err
		}
		if err := pending.appendChunk(chunk); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
	case frameSessionReject:
		id, err := decodeSessionReject(payload)
		if err != nil {
			return err
		}
		if err := pending.reject(id); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
	case frameSessionVerdict:
		id, outcome, pFake, err := decodeSessionVerdict(payload)
		if err != nil {
			return err
		}
		sess, err := pending.resolve(id)
		if err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		switch outcome {
		case sessionAccepted:
			// The verdict frame carries no trajectory: the chunks
			// already journaled every point bit-exact. Reassemble and
			// replay through the same path a batch accept takes, in
			// frame (= ingestion) order.
			st.Uploads = append(st.Uploads, &wifi.Upload{
				Traj: &trajectory.T{
					ID: sess.ID, Mode: sess.Mode, Points: sess.Points,
				},
				Scans:       sess.Scans,
				Contributor: sess.Contributor,
			})
			st.UploadScores = append(st.UploadScores, pFake)
			st.Accepted++
		case sessionRejected:
			st.Rejected++
		case sessionAborted:
			// Expired or refused on restart: drop without a verdict.
		default:
			return fmt.Errorf("%w: unknown session outcome %d", wal.ErrCorrupt, outcome)
		}
	default:
		return fmt.Errorf("%w: unknown frame type %d", wal.ErrCorrupt, typ)
	}
	return nil
}

// pendingSessions tracks streaming sessions during replay: seeded from the
// snapshot, grown by open/chunk frames, retired by verdict frames.
// Whatever is left in flight at the end of the log is handed to
// Service.Restore to resume or abort.
type pendingSessions struct {
	byID  map[string]*stream.SessionState
	order []string
}

func newPendingSessions() *pendingSessions {
	return &pendingSessions{byID: make(map[string]*stream.SessionState)}
}

func (ps *pendingSessions) open(st stream.SessionState) error {
	if st.ID == "" {
		return errors.New("session frame without an id")
	}
	if _, dup := ps.byID[st.ID]; dup {
		return fmt.Errorf("session %q opened twice", st.ID)
	}
	if len(st.Scans) != len(st.Points) {
		return fmt.Errorf("session %q has %d scans for %d points", st.ID, len(st.Scans), len(st.Points))
	}
	ps.byID[st.ID] = &st
	ps.order = append(ps.order, st.ID)
	return nil
}

func (ps *pendingSessions) appendChunk(chunk *wifi.Upload) error {
	sess, ok := ps.byID[chunk.Traj.ID]
	if !ok {
		return fmt.Errorf("chunk for unopened session %q", chunk.Traj.ID)
	}
	sess.Points = append(sess.Points, chunk.Traj.Points...)
	sess.Scans = append(sess.Scans, chunk.Scans...)
	sess.Chunks++
	return nil
}

// reject marks a pending session as early-exit rejected. The marker frame
// is journaled while the session is still registered, so replay must find
// it in flight; a reject for a resolved or unknown session is corruption.
func (ps *pendingSessions) reject(id string) error {
	sess, ok := ps.byID[id]
	if !ok {
		return fmt.Errorf("reject marker for unopened session %q", id)
	}
	sess.Rejected = true
	return nil
}

func (ps *pendingSessions) resolve(id string) (*stream.SessionState, error) {
	sess, ok := ps.byID[id]
	if !ok {
		return nil, fmt.Errorf("verdict for unopened session %q", id)
	}
	delete(ps.byID, id)
	for i, oid := range ps.order {
		if oid == id {
			ps.order = append(ps.order[:i], ps.order[i+1:]...)
			break
		}
	}
	return sess, nil
}

func (ps *pendingSessions) inFlight() []stream.SessionState {
	if len(ps.order) == 0 {
		return nil
	}
	out := make([]stream.SessionState, 0, len(ps.order))
	for _, id := range ps.order {
		out = append(out, *ps.byID[id])
	}
	return out
}

// Recovered returns the state reconstructed at open time.
func (p *Persistence) Recovered() *RecoveredState { return p.recovered }

// bind attaches the persistence to its service and starts the appender.
func (p *Persistence) bind(s *Service) error {
	if p.svc != nil {
		return errors.New("server: persistence already bound to a service")
	}
	p.svc = s
	go p.run()
	return nil
}

// enqueueLocked queues one verdict for the appender. It is called with the
// service mutex held, which is what makes the WAL frame order match the
// store ingestion order (and recovery bit-identical): no other upload can
// commit state between this upload's ingestion and its enqueue. A full
// queue blocks the upload — that is the backpressure, and it cannot
// deadlock because the appender drains the queue without ever waiting on
// the service mutex.
func (p *Persistence) enqueueLocked(e persistEntry) {
	p.queue <- e
}

// run is the appender goroutine: it drains the queue into the WAL,
// triggers auto-compaction, and — when the breaker is armed — wakes at
// probe time to attempt the half-open heal.
func (p *Persistence) run() {
	defer close(p.done)
	for {
		if p.breaker != nil && p.breaker.ProbeDue() {
			p.probe()
		}
		var probeC <-chan time.Time
		var probeTimer *time.Timer
		if p.breaker != nil && p.breaker.State() == resilience.StateOpen {
			probeTimer = time.NewTimer(p.breaker.ProbeIn() + time.Millisecond)
			probeC = probeTimer.C
		}
		select {
		case e := <-p.queue:
			p.appendEntry(e)
			p.maybeAutoCompact()
		case ch := <-p.compactCh:
			ch <- p.compact()
		case <-probeC:
			// Loop back around; ProbeDue decides at the top.
		case <-p.stop:
			if probeTimer != nil {
				probeTimer.Stop()
			}
			p.drainQueue()
			return
		}
		if probeTimer != nil {
			probeTimer.Stop()
		}
	}
}

// probe is the half-open trial: a full compaction. Success both proves
// the filesystem accepts writes and syncs again AND repairs the durability
// hole — every frame dropped while the breaker was open is inside the
// snapshot, because the snapshot is cut from the in-memory state that
// never stopped being correct. Failure re-opens the breaker and re-arms
// the cooldown.
func (p *Persistence) probe() {
	if err := p.compact(); err != nil {
		p.noteErr(err) // noteErr reports the failure to the breaker too
		return
	}
	p.breaker.Success()
}

// appendEntry frames one entry into the log.
func (p *Persistence) appendEntry(e persistEntry) {
	if e.barrier != nil {
		p.noteErr(p.log.Sync())
		close(e.barrier)
		return
	}
	switch e.kind {
	case entryVerdict:
		if !e.accepted {
			p.noteOutcome(p.log.Append(frameRejected, nil))
			return
		}
		buf, err := appendUpload(p.buf[:0], e.upload, e.pFake)
		if err != nil {
			p.noteErr(err)
			return
		}
		p.buf = buf
		p.noteOutcome(p.log.Append(frameAccepted, buf))
	case entrySessionOpen:
		buf, err := appendSessionOpen(p.buf[:0], e.sessID, e.mode, e.contributor)
		if err != nil {
			p.noteErr(err)
			return
		}
		p.buf = buf
		p.noteOutcome(p.log.Append(frameSessionOpen, buf))
	case entrySessionChunk:
		buf, err := appendUpload(p.buf[:0], e.upload, 0)
		if err != nil {
			p.noteErr(err)
			return
		}
		p.buf = buf
		p.noteOutcome(p.log.Append(frameSessionChunk, buf))
	case entrySessionVerdict:
		buf, err := appendSessionVerdict(p.buf[:0], e.sessID, e.outcome, e.pFake)
		if err != nil {
			p.noteErr(err)
			return
		}
		p.buf = buf
		p.noteOutcome(p.log.Append(frameSessionVerdict, buf))
	case entrySessionReject:
		buf, err := appendSessionReject(p.buf[:0], e.sessID)
		if err != nil {
			p.noteErr(err)
			return
		}
		p.buf = buf
		p.noteOutcome(p.log.Append(frameSessionReject, buf))
	default:
		p.noteErr(fmt.Errorf("server: unknown persist entry kind %d", e.kind))
	}
}

// noteOutcome records a frame append result: failures feed noteErr (and
// the breaker), successes reset the breaker's failure streak.
func (p *Persistence) noteOutcome(err error) {
	if err == nil {
		if p.breaker != nil {
			p.breaker.Ok()
		}
		return
	}
	p.noteErr(err)
}

// drainQueue appends everything currently queued without blocking.
func (p *Persistence) drainQueue() {
	for {
		select {
		case e := <-p.queue:
			p.appendEntry(e)
		default:
			return
		}
	}
}

func (p *Persistence) maybeAutoCompact() {
	if p.opts.CompactBytes <= 0 {
		return
	}
	if _, bytes := p.log.Stats(); bytes >= p.opts.CompactBytes {
		p.noteErr(p.compact())
	}
}

// compact checkpoints the lineage with a snapshot of the full provider
// state. It runs on the appender goroutine (or on Close's, once the appender
// has exited), so it is the sole WAL writer.
func (p *Persistence) compact() error {
	if p.svc == nil {
		return errors.New("server: persistence not bound to a service")
	}
	// Phase 1: win the service write lock while keeping the queue drained —
	// an upload blocked on a full queue holds the lock, so draining is what
	// lets it finish and release.
	for !p.svc.mu.TryLock() {
		p.drainQueue()
		runtime.Gosched()
	}
	// Phase 2: the lock freezes enqueues, so after one more drain the WAL
	// holds exactly the frames the captured state accounts for.
	p.drainQueue()
	st := p.svc.snapshotLocked()
	p.svc.mu.Unlock()
	// Phase 3: persist outside the lock. Uploads accepted from here on sit
	// in the queue until compaction finishes, so their frames land after
	// the reset and replay cleanly on top of the snapshot.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	if err := p.log.Checkpoint(buf.Bytes()); err != nil {
		return err
	}
	p.lastSnapshot.Store(time.Now().UnixNano())
	// The snapshot captured the complete in-memory state, so every
	// append failure before this point is repaired: frames that never
	// made the log are inside the snapshot. Durability is whole again.
	p.healedErrs.Store(p.errCount.Load())
	return nil
}

// Compact synchronously snapshots the provider state and resets the log.
func (p *Persistence) Compact() error {
	if p.svc == nil {
		return errors.New("server: persistence not bound to a service")
	}
	ch := make(chan error, 1)
	select {
	case p.compactCh <- ch:
		return <-ch
	case <-p.done:
		return errors.New("server: persistence closed")
	}
}

// Flush blocks until every entry queued before the call is appended and
// fsynced — the durability barrier crash tests cut at.
func (p *Persistence) Flush() error {
	if p.svc == nil {
		return errors.New("server: persistence not bound to a service")
	}
	barrier := make(chan struct{})
	select {
	case p.queue <- persistEntry{barrier: barrier}:
	case <-p.done:
		return errors.New("server: persistence closed")
	}
	select {
	case <-barrier:
	case <-p.done:
		// The appender exits by draining the queue, so a shutdown race
		// still lands the barrier's predecessors; the final Close sync
		// covers durability.
	}
	// Only unhealed errors break the durability promise: failures whose
	// frames a later snapshot captured (errCount <= healedErrs) are
	// repaired, so acks issued after the heal are trustworthy again.
	if p.errCount.Load() > p.healedErrs.Load() {
		if err := p.Err(); err != nil {
			return fmt.Errorf("server: durability compromised: %w", err)
		}
		return errors.New("server: durability compromised")
	}
	return nil
}

// close stops the appender, takes a final snapshot, and closes the log.
func (p *Persistence) close() error {
	var err error
	p.stopOnce.Do(func() {
		close(p.stop)
		<-p.done
		if p.svc != nil {
			// The appender is gone; any upload that raced shutdown is
			// still queued and gets drained by the compaction itself.
			err = p.compact()
		}
		if cerr := p.log.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = p.Err()
		}
	})
	return err
}

// noteErr counts and records background append/sync/compact failures; the
// first one is kept verbatim for /v1/stats and Err. When the breaker is
// armed, every failure feeds it — in the closed state it advances the
// streak toward opening, in half-open it re-opens.
func (p *Persistence) noteErr(err error) {
	if err == nil {
		return
	}
	p.errCount.Add(1)
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
	if p.breaker != nil {
		p.breaker.Fail()
	}
}

// degraded reports whether the service must fail closed: the breaker is
// armed and not closed, so an upload ack could not be made durable.
func (p *Persistence) degraded() bool {
	return p.breaker != nil && p.breaker.State() != resilience.StateClosed
}

// retryAfter is the Retry-After hint for degraded 503s: the time until
// the next half-open probe could readmit traffic.
func (p *Persistence) retryAfter() time.Duration {
	if p.breaker == nil {
		return 0
	}
	return p.breaker.ProbeIn()
}

// breakerStats snapshots the breaker, nil when not armed.
func (p *Persistence) breakerStats() *resilience.BreakerStats {
	if p.breaker == nil {
		return nil
	}
	st := p.breaker.Stats()
	return &st
}

// Err returns the first background append/compact failure, if any.
func (p *Persistence) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// PersistStats is the durability slice of /v1/stats.
type PersistStats struct {
	// WALBytes is the log size on disk, header included.
	WALBytes int64 `json:"wal_bytes"`
	// WALFrames is the number of frames appended since the last compaction.
	WALFrames uint64 `json:"wal_frames"`
	// Generation is the log generation (bumped by every compaction).
	Generation uint64 `json:"generation"`
	// LastSnapshot is the RFC 3339 time of the last committed snapshot,
	// empty if none this process lifetime.
	LastSnapshot string `json:"last_snapshot,omitempty"`
	// QueueDepth is the current number of verdicts awaiting append.
	QueueDepth int `json:"queue_depth"`
	// Errors counts background persistence failures (failed appends,
	// fsyncs, or compactions). UnhealedErrors is the subset not yet
	// repaired by a committed snapshot; nonzero means acknowledged-durable
	// cannot currently be promised.
	Errors         int64 `json:"errors"`
	UnhealedErrors int64 `json:"unhealed_errors"`
	// Error is the first background persistence failure, if any.
	Error string `json:"error,omitempty"`
	// Breaker reports the fail-closed circuit breaker when armed.
	Breaker *resilience.BreakerStats `json:"breaker,omitempty"`
	// Degraded mirrors the health endpoint: true while the breaker is
	// open or probing and uploads are being shed with 503.
	Degraded bool `json:"degraded"`
}

func (p *Persistence) stats() *PersistStats {
	frames, bytes := p.log.Stats()
	st := &PersistStats{
		WALBytes:   bytes,
		WALFrames:  frames,
		Generation: p.log.Generation(),
		QueueDepth: len(p.queue),
		Errors:     p.errCount.Load(),
		Breaker:    p.breakerStats(),
		Degraded:   p.degraded(),
	}
	if unhealed := st.Errors - p.healedErrs.Load(); unhealed > 0 {
		st.UnhealedErrors = unhealed
	}
	if ns := p.lastSnapshot.Load(); ns != 0 {
		st.LastSnapshot = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	if err := p.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}
