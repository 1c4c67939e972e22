// Package stream implements session-based streaming verification: the
// online half of the paper's defense. A batch provider verifies a complete
// trajectory in one shot; a deployed provider sees points *as the user
// moves* and wants to score them as they arrive — both to reject
// confidently-forged prefixes before the upload finishes (saving pipeline
// work and bounding abuse) and to give honest clients early feedback.
//
// A Manager owns the open/append/close lifecycle of verification sessions.
// Each appended chunk makes one confidence call for its points
// (rssimap.Backend.Confidences) and caches the resulting (Num_mac, Φ)
// confidences with the mark of the store state they read; a sliding window
// over the most recent points is aggregated into an Eq. 8 feature vector
// (rssimap.AnswerFeatures) and scored by the XGBoost detector to produce a
// *provisional* P(fake). When the provisional probability of a sufficiently
// long prefix crosses the early-exit threshold, the session is rejected on
// the spot. A failed call fails the append: nothing is cached for the chunk
// and no provisional verdict is drawn from it.
//
// Close hands the fully buffered trajectory back to the caller, which runs
// the ordinary batch pipeline on it; CloseFeatures is that pipeline's WiFi
// stage, and it hands the backend the cached confidences. The backend reuses
// a point's cached answer only where it proves no record has landed within
// r + R of the point (and no trust table has been pushed) since, and
// recomputes the rest — so the final verdict is bit-identical to what
// POSTing the same points to /v1/trajectory would have produced at that
// instant, regardless of how the stream was chunked or what was ingested
// between its chunks.
//
// Sessions are bounded three ways: an admission gate on the number of open
// sessions (MaxSessions), a per-session point budget (MaxPoints), and
// TTL/idle deadlines enforced by Expired + the server's sweep. The Manager
// holds no durability of its own; the server journals opens, chunks, and
// verdicts into its WAL and uses SnapshotSessions/RestoreSession to carry
// in-flight sessions across snapshots and crashes.
package stream

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/rssimap"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// MaxIDLen bounds client-supplied session ids. The cap keeps ids cheap to
// journal and index, and — critically — guarantees the WAL codecs (which
// frame ids with a u16 length) can never fail on an id the admission path
// accepted: an oversized id failing asynchronously in the appender would
// trip the persistence breaker, handing unauthenticated clients a
// denial-of-service on durability.
const MaxIDLen = 128

// Sentinel errors the server maps to HTTP statuses.
var (
	// ErrLimit: the MaxSessions admission gate refused a new session.
	ErrLimit = errors.New("stream: session limit reached")
	// ErrIDTooLong: a client-supplied session id exceeds MaxIDLen.
	ErrIDTooLong = fmt.Errorf("stream: session id exceeds %d bytes", MaxIDLen)
	// ErrDuplicate: Open was given an id that is already open.
	ErrDuplicate = errors.New("stream: session id already open")
	// ErrNotFound: no open session has that id.
	ErrNotFound = errors.New("stream: unknown session")
	// ErrExpired: the session outlived its TTL or idle deadline. The
	// session stays registered until Evict so the caller can journal the
	// abort.
	ErrExpired = errors.New("stream: session expired")
	// ErrRejected: the early-exit already rejected the session's prefix;
	// no further points are accepted.
	ErrRejected = errors.New("stream: session rejected (confidently forged prefix)")
	// ErrClosing: a close is in progress; concurrent appends and closes
	// are refused.
	ErrClosing = errors.New("stream: session close in progress")
	// ErrTooManyPoints: the chunk would exceed the per-session point budget.
	ErrTooManyPoints = errors.New("stream: session point budget exhausted")
	// ErrStore: a confidence query failed (the backend could not answer, or
	// the request's deadline passed). The chunk stays buffered and the point
	// unscored: a replay of the chunk retries it, and a close computes it.
	ErrStore = errors.New("stream: confidence query failed")
)

// SeqError reports an out-of-order chunk: the client's seq is neither the
// next expected chunk nor a replay of the last applied one.
type SeqError struct {
	Want, Got int
}

func (e *SeqError) Error() string {
	return fmt.Sprintf("stream: chunk seq %d, want %d", e.Got, e.Want)
}

// Config tunes a Manager. The zero value of every field selects a default;
// Detector may be nil, which disables provisional scoring and early exit
// (sessions still buffer, validate, and close through the batch path).
type Config struct {
	// Detector supplies the store and model the provisional scorer uses.
	Detector *detect.WiFiDetector
	// MaxSessions is the admission gate on concurrently open sessions.
	// Default 1024.
	MaxSessions int
	// MaxPoints bounds the per-session buffer. Default 10000 (the batch
	// endpoint's upload cap).
	MaxPoints int
	// TTL is the absolute session lifetime from Open. Default 10m.
	TTL time.Duration
	// IdleTimeout evicts sessions with no append/close activity. Default 90s.
	IdleTimeout time.Duration
	// Window is the sliding-window length (points) of the provisional
	// feature vector. Default 16.
	Window int
	// EarlyExit is the provisional P(fake) at or above which a prefix of
	// at least EarlyExitAfter points is rejected outright. Default 0.99.
	EarlyExit float64
	// EarlyExitAfter is the minimum scored prefix length before the early
	// exit may fire. Default 12.
	EarlyExitAfter int
	// DisableEarlyExit keeps provisional scoring but never rejects — the
	// configuration the bit-identity property tests run under.
	DisableEarlyExit bool
	// TimeTolerance is the allowed deviation from the session's sampling
	// interval, matching the batch decoder's trajectory validation.
	// Default 500ms.
	TimeTolerance time.Duration
	// Clock substitutes time.Now for deterministic expiry tests.
	Clock func() time.Time
}

func (c *Config) setDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 10000
	}
	if c.TTL <= 0 {
		c.TTL = 10 * time.Minute
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 90 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.EarlyExit <= 0 {
		c.EarlyExit = 0.99
	}
	if c.EarlyExitAfter <= 0 {
		c.EarlyExitAfter = 12
	}
	if c.TimeTolerance <= 0 {
		c.TimeTolerance = 500 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Ack is the acknowledgement of one applied chunk (or the state echoed back
// for a replayed one): how much the session has buffered and scored, and
// the provisional verdict over the sliding window.
type Ack struct {
	// Seq is the number of chunks applied so far (the next expected seq).
	Seq int `json:"seq"`
	// Points is the total buffered point count.
	Points int `json:"points"`
	// Scored is how many buffered points have run the confidence kernel.
	Scored int `json:"scored"`
	// ProvisionalProbFake is the XGBoost P(fake) over the sliding window
	// of the most recent WindowPoints points. Zero when no detector is
	// configured.
	ProvisionalProbFake float64 `json:"provisional_prob_fake"`
	// WindowPoints is the window length the provisional verdict covers.
	WindowPoints int `json:"window_points"`
	// Rejected is set once the early exit fires: the prefix is confidently
	// forged, the session accepts no more points, and Close will return a
	// rejection.
	Rejected bool `json:"rejected"`
}

type sessionPhase int

const (
	phaseOpen sessionPhase = iota
	phaseRejected
	phaseClosing
)

// session is one in-flight streaming verification.
type session struct {
	id          string
	mode        trajectory.Mode
	contributor string // uploader identity bound at open; "" = anonymous

	mu       sync.Mutex
	phase    sessionPhase
	rejected bool // sticky early-exit marker; survives the move to phaseClosing
	points   []trajectory.Point
	scans    []wifi.Scan
	interval time.Duration // fixed by the first two points
	chunks   int
	lastAck  Ack

	// Provisional-scoring state: answers[i] is point i's cached TopK
	// confidences (backed by arena) and their mark.
	scored  int
	answers []rssimap.Answer
	arena   []rssimap.PointConfidence

	created    time.Time
	lastActive time.Time
}

// SessionState is the serializable form of an in-flight session — what
// snapshots persist and WAL replay reconstructs. Gob keeps the float64
// plane coordinates and timestamps lossless, so a resumed session's final
// verdict stays bit-identical.
type SessionState struct {
	ID     string
	Mode   trajectory.Mode
	Chunks int
	Points []trajectory.Point
	Scans  []wifi.Scan
	// Contributor is the uploader identity bound at open ("" = legacy
	// anonymous); it survives snapshots and WAL replay so a resumed
	// session's accepted upload carries the same provenance.
	Contributor string
	// Rejected carries the early-exit marker across crashes: a client that
	// was told its prefix is confidently forged must still be refused after
	// recovery, not silently readmitted.
	Rejected bool
}

// Stats is the streaming slice of /v1/stats.
type Stats struct {
	// Open is the number of currently open sessions; OpenPoints the total
	// points they hold.
	Open       int `json:"open"`
	OpenPoints int `json:"open_points"`
	// Lifecycle counters since process start.
	Opened  int64 `json:"opened"`
	Closed  int64 `json:"closed"`
	Expired int64 `json:"expired"`
	Aborted int64 `json:"aborted"`
	Resumed int64 `json:"resumed"`
	// EarlyExits counts sessions rejected mid-stream on a confidently
	// forged prefix.
	EarlyExits int64 `json:"early_exits"`
	// Chunks and PointsScored count applied chunks and confidence-kernel
	// runs.
	Chunks       int64 `json:"chunks"`
	PointsScored int64 `json:"points_scored"`
	// CloseReused and CloseRecomputed split the points of closed sessions'
	// feature calls: answered from the append-time cache, or run through
	// the kernel again.
	CloseReused     int64 `json:"close_points_reused"`
	CloseRecomputed int64 `json:"close_points_recomputed"`
}

// Manager owns the streaming sessions of one verification service.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // ids in open order (snapshot determinism)

	openPoints atomic.Int64

	opened, closed, expired, aborted atomic.Int64
	resumed, earlyExits              atomic.Int64
	chunks, pointsScored             atomic.Int64
	closeReused, closeRecomputed     atomic.Int64
}

// NewManager validates the config and returns an empty manager.
func NewManager(cfg Config) (*Manager, error) {
	cfg.setDefaults()
	if cfg.EarlyExit > 1 && !cfg.DisableEarlyExit {
		return nil, fmt.Errorf("stream: early-exit threshold %g must be in (0, 1]", cfg.EarlyExit)
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*session)}, nil
}

// newSessionID returns a fresh random session id (clients may also supply
// their own).
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("stream: session id entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Open registers a new session and returns its id (generated when empty).
// The MaxSessions gate is checked after expired sessions are discounted, so
// a burst of abandoned sessions cannot wedge admission until their ids are
// swept.
func (m *Manager) Open(id string, mode trajectory.Mode) (string, error) {
	return m.OpenAs(id, mode, "")
}

// OpenAs is Open with the uploader identity bound to the session; the
// assembled upload BeginClose returns carries it, so accepted sessions
// ingest with provenance.
func (m *Manager) OpenAs(id string, mode trajectory.Mode, contributor string) (string, error) {
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		id = newSessionID()
	} else if len(id) > MaxIDLen {
		return "", ErrIDTooLong
	} else if _, dup := m.sessions[id]; dup {
		return "", ErrDuplicate
	}
	live := 0
	for _, s := range m.sessions {
		s.mu.Lock()
		expired := m.expiredAt(s, now)
		s.mu.Unlock()
		if !expired {
			live++
		}
	}
	if live >= m.cfg.MaxSessions {
		return "", ErrLimit
	}
	s := &session{id: id, mode: mode, contributor: contributor, created: now, lastActive: now}
	m.sessions[id] = s
	m.order = append(m.order, id)
	m.opened.Add(1)
	return id, nil
}

// expiredAt reports whether s is past its TTL or idle deadline. Callers
// must hold s.mu: created is immutable once the session is published, but
// lastActive is written by Buffer and BeginClose under s.mu alone, so
// reading it under m.mu only would race with a concurrent append.
func (m *Manager) expiredAt(s *session, now time.Time) bool {
	return now.Sub(s.created) > m.cfg.TTL || now.Sub(s.lastActive) > m.cfg.IdleTimeout
}

// lookup fetches a session by id.
func (m *Manager) lookup(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Buffer applies chunk seq (points + their scans) to the session: the
// commit half of an append, separated from Score so the server can couple
// it with the WAL enqueue under the service mutex while the expensive
// scoring runs outside. It validates ordering, the point budget, and the
// trajectory timing rule (strictly increasing, constant interval within
// TimeTolerance — the same rule the batch decoder enforces).
//
// A replay of the last applied chunk (seq == applied-1) is acknowledged
// idempotently: replayed is true and the last ack is returned unchanged.
func (m *Manager) Buffer(id string, seq int, pts []trajectory.Point, scans []wifi.Scan) (ack Ack, replayed bool, err error) {
	s, err := m.lookup(id)
	if err != nil {
		return Ack{}, false, err
	}
	now := m.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.phase {
	case phaseRejected:
		return s.lastAck, false, ErrRejected
	case phaseClosing:
		return s.lastAck, false, ErrClosing
	}
	if m.expiredAt(s, now) {
		return s.lastAck, false, ErrExpired
	}
	// Only an actually-applied chunk can be replayed: on a fresh session
	// (chunks == 0) a seq of -1 is an ordering error, not a replay.
	if s.chunks > 0 && seq == s.chunks-1 {
		return s.lastAck, true, nil
	}
	if seq != s.chunks {
		return s.lastAck, false, &SeqError{Want: s.chunks, Got: seq}
	}
	if len(pts) == 0 {
		return s.lastAck, false, errors.New("stream: empty chunk")
	}
	if len(scans) != len(pts) {
		return s.lastAck, false, fmt.Errorf("stream: %d scans for %d points", len(scans), len(pts))
	}
	if len(s.points)+len(pts) > m.cfg.MaxPoints {
		return s.lastAck, false, ErrTooManyPoints
	}
	if err := m.checkTiming(s, pts); err != nil {
		return s.lastAck, false, err
	}
	s.points = append(s.points, pts...)
	s.scans = append(s.scans, scans...)
	if s.interval == 0 && len(s.points) >= 2 {
		s.interval = s.points[1].Time.Sub(s.points[0].Time)
	}
	s.chunks++
	s.lastActive = now
	s.lastAck = Ack{Seq: s.chunks, Points: len(s.points), Scored: s.scored}
	m.openPoints.Add(int64(len(pts)))
	m.chunks.Add(1)
	return s.lastAck, false, nil
}

// checkTiming enforces the batch decoder's trajectory timing rule across
// chunk boundaries. Called with s.mu held.
func (m *Manager) checkTiming(s *session, pts []trajectory.Point) error {
	prev := pts[0].Time
	if n := len(s.points); n > 0 {
		prev = s.points[n-1].Time
		if dt := pts[0].Time.Sub(prev); dt <= 0 {
			return fmt.Errorf("stream: %w at chunk boundary", trajectory.ErrNotMonotonic)
		}
	}
	interval := s.interval
	base := len(s.points)
	for i, p := range pts {
		if base == 0 && i == 0 {
			continue
		}
		dt := p.Time.Sub(prev)
		if dt <= 0 {
			return fmt.Errorf("stream: %w: point %d", trajectory.ErrNotMonotonic, base+i)
		}
		if interval == 0 {
			interval = dt // first step of the session fixes the cadence
		} else {
			diff := dt - interval
			if diff < 0 {
				diff = -diff
			}
			if diff > m.cfg.TimeTolerance {
				return fmt.Errorf("stream: %w: point %d step %v, want %v",
					trajectory.ErrIrregular, base+i, dt, interval)
			}
		}
		prev = p.Time
	}
	return nil
}

// slotPool holds the answer slots of chunk queries. No prior answer is ever
// passed with them, so no slot holds a session arena's storage.
var slotPool = sync.Pool{New: func() any { return new([]rssimap.Answer) }}

// Score runs one confidence query over every buffered-but-unscored point
// and refreshes the provisional sliding-window verdict. It takes only the
// session lock — concurrent sessions score in parallel, and the store's own
// read lock governs access to the crowdsourced history. Safe to call at any
// time; scoring is idempotent over already-scored points. ctx bounds the
// query. A failed query fails the whole chunk with ErrStore: nothing is
// cached for its points and the provisional verdict stays as it was.
func (m *Manager) Score(ctx context.Context, id string) (Ack, error) {
	s, err := m.lookup(id)
	if err != nil {
		return Ack{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == phaseClosing {
		return s.lastAck, ErrClosing
	}
	det := m.cfg.Detector
	if det == nil {
		s.scored = len(s.points)
		s.lastAck.Scored = s.scored
		return s.lastAck, nil
	}
	fcfg := det.Features
	if k := len(s.points) - s.scored; k > 0 {
		// The allocation-free hot path: the answers land in pooled slots,
		// then move to the session arena so they survive the next chunk.
		buf := slotPool.Get().(*[]rssimap.Answer)
		defer slotPool.Put(buf)
		slots := slices.Grow((*buf)[:0], k)[:k]
		*buf = slots
		if _, err := det.Store.Confidences(ctx, slots, s.points[s.scored:], s.scans[s.scored:], fcfg, nil); err != nil {
			return s.lastAck, fmt.Errorf("%w: points %d-%d: %w", ErrStore, s.scored, len(s.points)-1, err)
		}
		for _, a := range slots {
			start := len(s.arena)
			s.arena = append(s.arena, a.Confs...)
			s.answers = append(s.answers, rssimap.Answer{Confs: s.arena[start:len(s.arena):len(s.arena)], Mark: a.Mark})
		}
		s.scored = len(s.points)
		m.pointsScored.Add(int64(k))
	}
	n := len(s.points)
	if n == 0 {
		return s.lastAck, nil
	}
	w := m.cfg.Window
	if w > n {
		w = n
	}
	feat := rssimap.AnswerFeatures(s.answers[n-w:n], fcfg)
	// PredictProb runs the compiled flat-forest kernel (internal/xgb
	// compile.go), so the per-chunk provisional verdict costs a contiguous
	// array walk, not a pointer-tree traversal.
	prob := det.Model.PredictProb(feat)
	s.lastAck.Scored = s.scored
	s.lastAck.ProvisionalProbFake = prob
	s.lastAck.WindowPoints = w
	if !m.cfg.DisableEarlyExit && n >= m.cfg.EarlyExitAfter && prob >= m.cfg.EarlyExit {
		s.phase = phaseRejected
		s.rejected = true
		s.lastAck.Rejected = true
		m.earlyExits.Add(1)
	}
	return s.lastAck, nil
}

// AppendChunk is Buffer followed by Score — the convenience form for
// callers without a WAL to couple the commit to or a request to bound it.
func (m *Manager) AppendChunk(id string, seq int, pts []trajectory.Point, scans []wifi.Scan) (Ack, bool, error) {
	ack, replayed, err := m.Buffer(id, seq, pts, scans)
	if err != nil || replayed {
		return ack, replayed, err
	}
	ack, err = m.Score(context.Background(), id)
	return ack, false, err
}

// BeginClose freezes the session and hands back the assembled upload for
// the batch pipeline. A nil upload with ack.Rejected set means the early
// exit already rejected the session — the caller records the rejection
// without running the pipeline. The session stays registered (refusing
// appends and further closes) until Resolve or AbortClose.
func (m *Manager) BeginClose(id string) (*wifi.Upload, Ack, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, Ack{}, err
	}
	now := m.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == phaseClosing {
		return nil, s.lastAck, ErrClosing
	}
	if m.expiredAt(s, now) {
		return nil, s.lastAck, ErrExpired
	}
	s.lastActive = now
	if s.phase == phaseRejected {
		s.phase = phaseClosing
		return nil, s.lastAck, nil
	}
	s.phase = phaseClosing
	u := &wifi.Upload{
		Traj:        &trajectory.T{ID: s.id, Mode: s.mode, Points: s.points},
		Scans:       s.scans,
		Contributor: s.contributor,
	}
	return u, s.lastAck, nil
}

// CloseFeatures is the WiFi stage of a close: the Eq. 8 vector of the
// assembled upload u of closing session id, computed by b under cfg. The
// session's append-time answers go along when they were computed under the
// same cfg; b reuses each one it proves still exact and recomputes the rest
// (b judges marks it did not issue stale, as it does every point Score never
// answered). The split is counted in Stats.
func (m *Manager) CloseFeatures(ctx context.Context, id string, u *wifi.Upload, b rssimap.Backend, cfg rssimap.FeatureConfig) ([]float64, error) {
	var prior []rssimap.Answer
	if s, err := m.lookup(id); err == nil {
		s.mu.Lock()
		// A closing session is frozen: Score refuses it, so the answers
		// cannot grow under the backend's read.
		if s.phase == phaseClosing && m.cfg.Detector != nil && m.cfg.Detector.Features == cfg {
			prior = s.answers
		}
		s.mu.Unlock()
	}
	feat, computed, err := rssimap.ReuseFeatures(ctx, b, u, cfg, prior)
	if err != nil {
		return nil, err
	}
	m.closeReused.Add(int64(u.Traj.Len() - computed))
	m.closeRecomputed.Add(int64(computed))
	return feat, nil
}

// AbortClose returns a closing session to the open phase (used when the
// assembled upload fails validation, so the client can append the missing
// points and retry). A session the early exit already rejected returns to
// the rejected phase instead — aborting a close never readmits appends.
func (m *Manager) AbortClose(id string) {
	s, err := m.lookup(id)
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.phase == phaseClosing {
		if s.rejected {
			s.phase = phaseRejected
		} else {
			s.phase = phaseOpen
		}
	}
	s.mu.Unlock()
}

// Resolve removes a closing session whose verdict has been recorded.
func (m *Manager) Resolve(id string) {
	if m.remove(id) {
		m.closed.Add(1)
	}
}

// Evict removes a session without a verdict (expiry or restart-abort) and
// reports whether it existed.
func (m *Manager) Evict(id string, expired bool) bool {
	ok := m.remove(id)
	if ok {
		if expired {
			m.expired.Add(1)
		} else {
			m.aborted.Add(1)
		}
	}
	return ok
}

// remove deletes a session from the registry.
func (m *Manager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return false
	}
	delete(m.sessions, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.openPoints.Add(-int64(len(s.points)))
	return true
}

// ExpiredIDs lists the sessions past their deadlines, in open order. The
// server sweeps them through its WAL-journaled eviction path.
func (m *Manager) ExpiredIDs() []string {
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []string
	for _, id := range m.order {
		s := m.sessions[id]
		s.mu.Lock()
		expired := s.phase != phaseClosing && m.expiredAt(s, now)
		s.mu.Unlock()
		if expired {
			ids = append(ids, id)
		}
	}
	return ids
}

// Registered reports whether id is still in the session table (open,
// rejected, or closing — anything not yet resolved or evicted).
func (m *Manager) Registered(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sessions[id]
	return ok
}

// OpenCount returns the number of registered sessions.
func (m *Manager) OpenCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// RetryAfter is the admission hint for a refused Open: the idle timeout is
// the longest a stale session can hold a slot.
func (m *Manager) RetryAfter() time.Duration {
	return m.cfg.IdleTimeout
}

// Stats snapshots the lifecycle counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	open := len(m.sessions)
	m.mu.Unlock()
	return Stats{
		Open:            open,
		OpenPoints:      int(m.openPoints.Load()),
		Opened:          m.opened.Load(),
		Closed:          m.closed.Load(),
		Expired:         m.expired.Load(),
		Aborted:         m.aborted.Load(),
		Resumed:         m.resumed.Load(),
		EarlyExits:      m.earlyExits.Load(),
		Chunks:          m.chunks.Load(),
		PointsScored:    m.pointsScored.Load(),
		CloseReused:     m.closeReused.Load(),
		CloseRecomputed: m.closeRecomputed.Load(),
	}
}

// SnapshotSessions captures every in-flight session in open order — the
// slice compaction persists so sessions survive a log reset. Closing
// sessions are included: a crash between snapshot and verdict frame must
// not lose their buffered chunks.
func (m *Manager) SnapshotSessions() []SessionState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SessionState, 0, len(m.sessions))
	for _, id := range m.order {
		s := m.sessions[id]
		s.mu.Lock()
		out = append(out, SessionState{
			ID:          s.id,
			Mode:        s.mode,
			Chunks:      s.chunks,
			Points:      append([]trajectory.Point(nil), s.points...),
			Scans:       cloneScans(s.scans),
			Rejected:    s.rejected,
			Contributor: s.contributor,
		})
		s.mu.Unlock()
	}
	return out
}

func cloneScans(scans []wifi.Scan) []wifi.Scan {
	out := make([]wifi.Scan, len(scans))
	for i, sc := range scans {
		out[i] = sc.Clone()
	}
	return out
}

// RestoreSession resumes a recovered in-flight session: the buffered
// points are re-registered (scoring restarts lazily from the recovered
// store on the next Score), and the chunk cursor continues where the
// client left off. The session's clocks restart at recovery time. Limits
// are enforced — a session the restarted configuration cannot hold is
// refused, and the caller aborts it cleanly.
func (m *Manager) RestoreSession(st SessionState) error {
	if len(st.Points) > m.cfg.MaxPoints {
		return ErrTooManyPoints
	}
	if len(st.Scans) != len(st.Points) {
		return fmt.Errorf("stream: restore %s: %d scans for %d points", st.ID, len(st.Scans), len(st.Points))
	}
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sessions[st.ID]; dup {
		return ErrDuplicate
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return ErrLimit
	}
	s := &session{
		id:          st.ID,
		mode:        st.Mode,
		contributor: st.Contributor,
		points:      append([]trajectory.Point(nil), st.Points...),
		scans:       cloneScans(st.Scans),
		chunks:      st.Chunks,
		created:     now,
		lastActive:  now,
	}
	if len(s.points) >= 2 {
		s.interval = s.points[1].Time.Sub(s.points[0].Time)
	}
	s.lastAck = Ack{Seq: s.chunks, Points: len(s.points)}
	if st.Rejected {
		// The early exit fired before the crash and the client was told so;
		// resume refusing appends, and Close records the rejection without
		// the pipeline. (The provisional probability is not recovered — the
		// journaled marker carries only the decision.)
		s.phase = phaseRejected
		s.rejected = true
		s.lastAck.Rejected = true
	}
	m.sessions[st.ID] = s
	m.order = append(m.order, st.ID)
	m.openPoints.Add(int64(len(s.points)))
	m.resumed.Add(1)
	return nil
}
