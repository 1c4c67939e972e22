package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// Streaming verification endpoints. A client opens a session, appends
// point chunks as the user moves (each chunk acknowledged with a
// provisional verdict over a sliding window), and closes the session to
// get the final verdict — computed by the exact batch pipeline, so it is
// bit-identical to POSTing the assembled trajectory to /v1/trajectory.
//
// Durability mirrors the batch path: the session open, every acknowledged
// chunk, and the final verdict are journaled as WAL frames under the same
// service mutex that orders batch uploads, so recovery either resumes an
// in-flight session where its last acknowledged chunk left off or aborts
// it cleanly with a journaled verdict.

// SessionOpenRequest opens a streaming verification session. ID is
// optional (the server generates one when empty); Mode is the claimed
// travel mode, as in batch uploads.
type SessionOpenRequest struct {
	ID   string `json:"id,omitempty"`
	Mode string `json:"mode,omitempty"`
	// Contributor identifies the uploader for the provenance/trust
	// pipeline; empty means the legacy anonymous contributor. Identity is
	// bound at open time and applies to the whole session.
	Contributor string `json:"contributor,omitempty"`
}

// SessionOpenResponse returns the session id to append against.
type SessionOpenResponse struct {
	SessionID string `json:"session_id"`
}

// SessionAppendRequest appends chunk Seq to a session. Seq starts at 0 and
// increments per chunk; re-sending the last acknowledged chunk is answered
// idempotently with Replayed set.
type SessionAppendRequest struct {
	SessionID string        `json:"session_id"`
	Seq       int           `json:"seq"`
	Points    []uploadPoint `json:"points"`
}

// SessionAppendResponse acknowledges one chunk with the session's
// provisional state.
type SessionAppendResponse struct {
	stream.Ack
	Replayed bool `json:"replayed,omitempty"`
}

// SessionCloseRequest finalises a session; the response is the Verdict of
// the batch pipeline over the assembled trajectory.
type SessionCloseRequest struct {
	SessionID string `json:"session_id"`
}

// sessionVerdict outcomes journaled in frameSessionVerdict payloads.
const (
	sessionRejected byte = 0
	sessionAccepted byte = 1
	sessionAborted  byte = 2
)

// handleSessionOpen registers a session and journals the open.
func (s *Service) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	if !s.sessionPrecheck(w) {
		return
	}
	var req SessionOpenRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkIdentity(req.ID, req.Contributor); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var mode trajectory.Mode
	if req.Mode != "" {
		m, err := trajectory.ParseMode(req.Mode)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		mode = m
	}
	id, err := s.openSession(req.ID, mode, req.Contributor)
	if errors.Is(err, stream.ErrLimit) {
		// Expired sessions may be holding slots; sweep and retry once.
		s.SweepSessions()
		id, err = s.openSession(req.ID, mode, req.Contributor)
	}
	if err != nil {
		s.writeStreamError(w, req.ID, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionOpenResponse{SessionID: id})
}

// openSession registers the session and journals the open frame under the
// service mutex, so the frame lands before any of the session's chunks.
func (s *Service) openSession(id string, mode trajectory.Mode, contributor string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.stream.OpenAs(id, mode, contributor)
	if err != nil {
		return "", err
	}
	if s.cfg.Persist != nil {
		s.cfg.Persist.enqueueLocked(persistEntry{
			kind: entrySessionOpen, sessID: id, mode: mode, contributor: contributor,
		})
	}
	return id, nil
}

// handleSessionAppend buffers and journals one chunk, then scores it.
func (s *Service) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	if !s.sessionPrecheck(w) {
		return
	}
	ctx := r.Context()
	if s.cfg.UploadTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.UploadTimeout)
		defer cancel()
	}
	if s.admission != nil {
		if err := s.admission.Acquire(ctx); err != nil {
			w.Header().Set("Retry-After", retryAfterSeconds(s.admission.RetryAfter()))
			writeJSON(w, http.StatusTooManyRequests,
				map[string]string{"error": "overloaded: " + err.Error()})
			return
		}
		held := time.Now()
		defer func() { s.admission.Release(time.Since(held)) }()
	}
	decodeStart := time.Now()
	req, ok := readSessionAppendRequest(w, r)
	if !ok {
		return
	}
	pts, scans, _, err := s.decodePoints(req.Points)
	s.observeStage(stageDecode, decodeStart)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	persistStart := time.Now()
	ack, replayed, err := s.bufferChunk(req.SessionID, req.Seq, pts, scans)
	s.observeStage(stagePersist, persistStart)
	if err != nil {
		s.writeStreamError(w, req.SessionID, err)
		return
	}
	// Scoring holds only the session lock, so concurrent sessions (and
	// batch uploads) verify in parallel with this chunk's kernel runs.
	// Replays score too: the chunk may have committed and journaled on an
	// earlier attempt whose Score then failed, and the retry must answer
	// with a fresh verdict rather than echo the stale pre-score ack —
	// Score is idempotent over already-scored points, so this is cheap.
	// A failed confidence query fails closed: the chunk stays committed but
	// unscored, no provisional verdict is drawn from it, and the client is
	// told to retry (the retry is a replay, which scores).
	ack, err = s.stream.Score(ctx, req.SessionID)
	if errors.Is(err, stream.ErrStore) {
		if ctx.Err() != nil {
			s.deadlineRejects.Add(1)
		} else {
			s.internalErrors.Add(1)
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	if err != nil {
		s.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if ack.Rejected {
		// The early exit fired on this append (a rejected session refuses
		// every later Buffer, so this Score call is the unique transition);
		// journal the marker so recovery cannot silently readmit a client
		// already told its prefix is confidently forged.
		s.journalSessionReject(req.SessionID)
	}
	writeJSON(w, http.StatusOK, SessionAppendResponse{Ack: ack, Replayed: replayed})
}

// readSessionAppendRequest reads one append body in whichever wire form
// the Content-Type negotiates, mirroring readUploadRequest.
func readSessionAppendRequest(w http.ResponseWriter, r *http.Request) (*SessionAppendRequest, bool) {
	if !isBinaryRequest(r) {
		var req SessionAppendRequest
		if !decodeBody(w, r, &req) {
			return nil, false
		}
		return &req, true
	}
	data, ok := readBinaryBody(w, r)
	if !ok {
		return nil, false
	}
	req, err := ParseSessionAppendBinary(data)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return nil, false
	}
	return req, true
}

// bufferChunk commits the chunk and journals its frame under the service
// mutex — the same ordering discipline record uses for batch verdicts, so
// a chunk is acknowledged only after its frame is queued behind every
// state change that precedes it.
func (s *Service) bufferChunk(id string, seq int, pts []trajectory.Point, scans []wifi.Scan) (stream.Ack, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ack, replayed, err := s.stream.Buffer(id, seq, pts, scans)
	if err != nil || replayed {
		return ack, replayed, err
	}
	if s.cfg.Persist != nil {
		chunk := &wifi.Upload{
			Traj:  &trajectory.T{ID: id, Points: pts},
			Scans: scans,
		}
		s.cfg.Persist.enqueueLocked(persistEntry{kind: entrySessionChunk, upload: chunk})
	}
	return ack, false, nil
}

// journalSessionReject journals the early-exit marker for id. Under the
// service mutex the session table and the WAL queue move together: while
// the session is still registered, its verdict frame (enqueued by
// recordSession under this same mutex, which also resolves the session)
// cannot yet be queued, so the marker always lands before the verdict.
// If a concurrent close already resolved the session, the rejection is
// recorded in the verdict itself and the marker is moot.
func (s *Service) journalSessionReject(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Persist == nil || !s.stream.Registered(id) {
		return
	}
	s.cfg.Persist.enqueueLocked(persistEntry{kind: entrySessionReject, sessID: id})
}

// handleSessionClose runs the batch pipeline over the assembled trajectory
// and journals the final verdict.
func (s *Service) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	if !s.sessionPrecheck(w) {
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if key != "" {
		if v, ok := s.dedup.get(key); ok {
			w.Header().Set("Idempotency-Replayed", "true")
			writeJSON(w, http.StatusOK, v)
			return
		}
	}
	ctx := r.Context()
	if s.cfg.UploadTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.UploadTimeout)
		defer cancel()
	}
	if s.admission != nil {
		if err := s.admission.Acquire(ctx); err != nil {
			w.Header().Set("Retry-After", retryAfterSeconds(s.admission.RetryAfter()))
			writeJSON(w, http.StatusTooManyRequests,
				map[string]string{"error": "overloaded: " + err.Error()})
			return
		}
		held := time.Now()
		defer func() { s.admission.Release(time.Since(held)) }()
	}
	var req SessionCloseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	u, ack, err := s.stream.BeginClose(req.SessionID)
	if err != nil {
		s.writeStreamError(w, req.SessionID, err)
		return
	}
	if u == nil {
		// The early exit already rejected the prefix; record the rejection
		// without running the pipeline.
		prov := ack.ProvisionalProbFake
		verdict := Verdict{
			Checks: map[string]string{
				"rules": "skipped", "route": "skipped", "replay": "skipped",
				"motion": "skipped", "wifi": "fail",
			},
			Reason:       "reported RSSIs inconsistent with crowdsourced history (rejected mid-stream)",
			WiFiProbFake: &prov,
		}
		s.recordSession(req.SessionID, nil, verdict)
		if key != "" {
			s.dedup.put(key, verdict)
		}
		writeJSON(w, http.StatusOK, verdict)
		return
	}
	if err := s.validateAssembled(u); err != nil {
		// The assembled trajectory cannot enter the pipeline (too short,
		// missing scans). Reopen the session so the client can append the
		// missing points and close again.
		s.stream.AbortClose(req.SessionID)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	verdict, err := s.verify(ctx, u, req.SessionID)
	if err != nil {
		s.stream.AbortClose(req.SessionID)
		if ctx.Err() != nil {
			s.deadlineRejects.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": "close deadline exceeded"})
			return
		}
		s.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	s.recordSession(req.SessionID, u, verdict)
	if key != "" {
		s.dedup.put(key, verdict)
	}
	writeJSON(w, http.StatusOK, verdict)
}

// validateAssembled applies the trajectory-level rules the batch decoder
// enforces per upload: minimum length, timing regularity, and the scan
// requirement. Per-chunk appends already validated coordinates and timing
// incrementally; this is the final gate before the pipeline.
func (s *Service) validateAssembled(u *wifi.Upload) error {
	if u.Traj.Len() < 2 {
		return fmt.Errorf("trajectory needs >= 2 points, got %d", u.Traj.Len())
	}
	if err := u.Traj.Validate(500 * time.Millisecond); err != nil {
		return err
	}
	var anyScan bool
	for _, sc := range u.Scans {
		if len(sc) > 0 {
			anyScan = true
			break
		}
	}
	if !anyScan && (s.cfg.RequireScans || s.cfg.WiFi != nil) {
		return errors.New("session carries no WiFi scans")
	}
	return nil
}

// recordSession is record for session verdicts: counters, history, online
// store ingestion, and the journaled verdict frame all commit under the
// service mutex, then the session is resolved — still under the mutex, so
// a concurrent snapshot either sees the open session without its verdict
// or the verdict without the session, never both.
func (s *Service) recordSession(id string, u *wifi.Upload, v Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	outcome := sessionRejected
	if v.Accepted {
		outcome = sessionAccepted
		s.accepted++
		s.history = append(s.history, u.Traj)
		if s.cfg.Replay != nil {
			s.cfg.Replay.AddHistory(u.Traj)
		}
		// The paper's crowdsourcing loop closes here: a session verified
		// as real feeds its scans back into the RSSI store (through the
		// trust pipeline when one is configured), on whichever backend —
		// global or cluster — the detector runs against.
		s.ingestLocked(u, verdictScore(v))
	} else {
		s.rejected++
	}
	if s.cfg.Persist != nil {
		s.cfg.Persist.enqueueLocked(persistEntry{
			kind: entrySessionVerdict, sessID: id, outcome: outcome, pFake: verdictScore(v),
		})
	}
	s.stream.Resolve(id)
}

// SweepSessions evicts sessions past their TTL or idle deadline, each with
// a journaled abort so recovery cannot resurrect them. It returns how many
// were evicted. lspserver calls it on a ticker; session opens call it when
// the admission gate refuses.
func (s *Service) SweepSessions() int {
	if s.stream == nil {
		return 0
	}
	ids := s.stream.ExpiredIDs()
	if len(ids) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range ids {
		// A session that closed between listing and locking is gone; Evict
		// reports that and no frame is journaled.
		if s.stream.Evict(id, true) {
			if s.cfg.Persist != nil {
				s.cfg.Persist.enqueueLocked(persistEntry{
					kind: entrySessionVerdict, sessID: id, outcome: sessionAborted,
				})
			}
			n++
		}
	}
	return n
}

// evictExpired removes one expired session with a journaled abort — the
// path taken when an append or close trips over the expiry.
func (s *Service) evictExpired(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream.Evict(id, true) && s.cfg.Persist != nil {
		s.cfg.Persist.enqueueLocked(persistEntry{
			kind: entrySessionVerdict, sessID: id, outcome: sessionAborted,
		})
	}
}

// sessionPrecheck answers the common refusals: streaming disabled (404)
// and degraded persistence (503, fail closed — a chunk ack must be as
// durable as a batch ack).
func (s *Service) sessionPrecheck(w http.ResponseWriter) bool {
	if s.stream == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "streaming verification not enabled"})
		return false
	}
	if s.cfg.Persist != nil && s.cfg.Persist.degraded() {
		s.degradedRejects.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Persist.retryAfter()))
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "service degraded: persistence unavailable"})
		return false
	}
	return true
}

// decodeBody decodes a JSON request body with the service's size cap,
// answering 400/413 itself; it reports whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed JSON: " + err.Error()})
		return false
	}
	return true
}

// writeStreamError maps streaming lifecycle errors to HTTP statuses.
func (s *Service) writeStreamError(w http.ResponseWriter, id string, err error) {
	var seqErr *stream.SeqError
	switch {
	case errors.Is(err, stream.ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, stream.ErrExpired):
		s.evictExpired(id)
		writeJSON(w, http.StatusGone, map[string]string{"error": err.Error()})
	case errors.Is(err, stream.ErrLimit):
		w.Header().Set("Retry-After", retryAfterSeconds(s.stream.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, stream.ErrTooManyPoints):
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": err.Error()})
	case errors.Is(err, stream.ErrDuplicate),
		errors.Is(err, stream.ErrClosing),
		errors.Is(err, stream.ErrRejected),
		errors.As(err, &seqErr):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}
