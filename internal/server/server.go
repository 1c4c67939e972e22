// Package server implements the location-service-provider substrate: the
// cloud-side HTTP service that ingests [lat, lon, time] trajectory uploads
// (with per-point WiFi scans) and runs the paper's verification pipeline —
// the DTW replay check, the motion-feature classifier, and the WiFi RSSI
// detector — before accepting a trajectory into the provider's history.
//
// It is a deliberately small, stdlib-only net/http service: JSON in, JSON
// out, safe for concurrent uploads, with the provider state guarded by a
// read-write mutex.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajforge/internal/binenc"
	"trajforge/internal/cluster"
	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/stats"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/trust"
	"trajforge/internal/wifi"
)

// Verdict is the provider's decision about one upload.
type Verdict struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// Checks reports each verification stage that ran: "pass", "fail", or
	// "skipped".
	Checks map[string]string `json:"checks"`
	// MotionProbReal is the motion classifier's P(real), when it ran.
	MotionProbReal *float64 `json:"motion_prob_real,omitempty"`
	// WiFiProbFake is the RSSI detector's P(fake), when it ran.
	WiFiProbFake *float64 `json:"wifi_prob_fake,omitempty"`
}

// Config wires the verification stages. Any stage may be nil, in which
// case it is skipped.
type Config struct {
	// Projection maps wire lat/lon to the provider's local plane.
	Projection *geo.Projection
	// Rules is the cheap physical-sanity filter (speed/acceleration/
	// teleport caps); the paper's related work shows replay defeats it, so
	// it is only ever a first line.
	Rules *detect.RuleChecker
	// Route rejects trajectories that stray from the road network (the
	// paper's route-rationality requirement).
	Route *detect.RouteChecker
	// Replay rejects near-duplicates of historical trajectories.
	Replay *detect.ReplayChecker
	// Motion is the trajectory-only classifier (the paper shows it is
	// defeated by adversarial forgeries — the server keeps it as a cheap
	// first filter).
	Motion detect.MotionDetector
	// WiFi is the RSSI countermeasure; when set, uploads must carry scans.
	WiFi *detect.WiFiDetector
	// RequireScans rejects uploads without WiFi scans even if WiFi is nil.
	RequireScans bool
	// IngestAccepted adds the scans of accepted uploads to the WiFi
	// detector's crowdsourced store, so the provider's coverage keeps
	// growing (and a user's own accepted uploads become the reference that
	// catches their later replay forgeries).
	IngestAccepted bool
	// MaxPoints bounds upload size (default 10,000).
	MaxPoints int
	// Persist, when set, journals every verdict to the write-ahead log and
	// snapshots the provider state on compaction, so counters, history and
	// the crowdsourced store survive restarts. Seed an empty store from
	// Persist.Recovered().Records, then call Restore after New; Close takes
	// the final snapshot.
	Persist *Persistence
	// MaxInFlight, when positive, bounds the number of uploads running the
	// verification pipeline concurrently; excess requests wait in a
	// bounded FIFO queue and are shed with 429 + Retry-After once the
	// queue is full or their deadline provably cannot be met. Zero keeps
	// the legacy unbounded behaviour.
	MaxInFlight int
	// QueueDepth is the admission wait-queue bound behind MaxInFlight;
	// defaults to 2*MaxInFlight when zero. Ignored unless MaxInFlight > 0.
	QueueDepth int
	// UploadTimeout, when positive, is the per-upload processing deadline:
	// the request context handed to the pipeline expires after this long,
	// so shed or slow uploads stop burning pipeline CPU.
	UploadTimeout time.Duration
	// DedupCapacity bounds the idempotency-key replay cache (default
	// 4096 keys, FIFO eviction).
	DedupCapacity int
	// Trust, when set (and WiFi ingestion is on), routes accepted uploads
	// through the poisoning-resistant pipeline: contributor trust ledger,
	// quarantine staging, drift alarm, and trust-weighted θ2 on the store
	// backend. Nil keeps the legacy direct-ingestion path bit-identically.
	Trust *trust.Config
	// Stream, when set, enables the /v1/session streaming verification
	// endpoints. New fills an unset Detector from WiFi and an unset
	// MaxPoints from the service's MaxPoints, so the streaming path scores
	// with the same detector and honours the same size cap as the batch
	// path.
	Stream *stream.Config
}

// stageNames lists the upload processing stages in pipeline order; it
// fixes the key set of Stats.Stages and the timing-counter slots. decode
// covers wire parsing (JSON or binary) plus semantic validation; features
// and score are the two halves of the WiFi countermeasure (feature
// extraction against the crowdsourced store, then the compiled forest
// kernel); persist is the in-request cost of committing the verdict.
var stageNames = []string{
	"decode", "rules", "route", "replay", "motion", "features", "score", "persist",
}

// Stage slot indices, in stageNames order.
const (
	stageDecode = iota
	stageRules
	stageRoute
	stageReplay
	stageMotion
	stageFeatures
	stageScore
	stagePersist
	numStages
)

// stageClock accumulates wall time spent in one processing stage across
// all uploads: totals for averages, a lock-free log-bucketed histogram
// for tail quantiles. Everything is atomic so the hot upload path never
// takes the service lock for telemetry.
type stageClock struct {
	count atomic.Int64
	nanos atomic.Int64
	hist  stats.LatencyHistogram
}

// Service is the verification server.
type Service struct {
	cfg Config

	mu       sync.RWMutex
	accepted int
	rejected int
	history  []*trajectory.T

	stages [numStages]stageClock // indexed in stageNames order

	admission *resilience.Admission // nil when MaxInFlight == 0
	dedup     *dedupCache
	stream    *stream.Manager // nil unless Config.Stream is set
	trust     *trust.Pipeline // nil unless Config.Trust is set

	internalErrors  atomic.Int64 // pipeline failures answered with 500, and failed append scoring (503)
	deadlineRejects atomic.Int64 // uploads cut off by UploadTimeout/disconnect mid-pipeline
	degradedRejects atomic.Int64 // uploads refused with 503 while the breaker was open
}

// New returns a service; the projection is required.
func New(cfg Config) (*Service, error) {
	if cfg.Projection == nil {
		return nil, errors.New("server: projection is required")
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 10000
	}
	s := &Service{cfg: cfg, dedup: newDedupCache(cfg.DedupCapacity)}
	if cfg.MaxInFlight > 0 {
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = 2 * cfg.MaxInFlight
		}
		s.admission = resilience.NewAdmission(resilience.AdmissionConfig{
			MaxInFlight: cfg.MaxInFlight, QueueDepth: depth,
		})
	}
	if cfg.Stream != nil {
		scfg := *cfg.Stream
		if scfg.Detector == nil {
			scfg.Detector = cfg.WiFi
		}
		if scfg.MaxPoints <= 0 {
			scfg.MaxPoints = cfg.MaxPoints
		}
		mgr, err := stream.NewManager(scfg)
		if err != nil {
			return nil, err
		}
		s.stream = mgr
	}
	if cfg.Trust != nil && cfg.WiFi != nil {
		s.trust = trust.NewPipeline(*cfg.Trust, cfg.WiFi.Store)
	}
	if cfg.Persist != nil {
		if err := cfg.Persist.bind(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Restore applies recovered state: counters, history, trust state,
// in-flight sessions, and the WAL's accepted uploads through the path a
// live accept takes, so a restarted provider answers bit-identically to
// one that never went down. The uploads are written into the store only
// when it holds exactly the snapshot's records; a store holding more
// recovered them from its own journal (a durable cluster coordinator), and
// trust replays without writing its promotions. A store holding fewer is
// another lineage: Restore applies nothing and fails. Seed an empty store
// from state.Records first.
func (s *Service) Restore(state *RecoveredState) error {
	if state == nil {
		return nil
	}
	write := true
	if s.cfg.WiFi != nil {
		n, want := s.cfg.WiFi.Store.Len(), len(state.Records)
		if n < want {
			return fmt.Errorf("server: store holds %d records, fewer than the %d of the recovered snapshot", n, want)
		}
		write = n == want
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accepted = state.Accepted
	s.rejected = state.Rejected
	if s.trust != nil && state.Trust != nil {
		// Trust state first: WAL replay below builds on the snapshot's
		// ledger/quarantine/drift exactly as live ingestion did.
		s.trust.RestoreState(*state.Trust)
	}
	for _, t := range state.History {
		s.history = append(s.history, t)
		if s.cfg.Replay != nil {
			s.cfg.Replay.AddHistory(t)
		}
	}
	for i, u := range state.Uploads {
		s.history = append(s.history, u.Traj)
		if s.cfg.Replay != nil {
			s.cfg.Replay.AddHistory(u.Traj)
		}
		var pFake float64
		if i < len(state.UploadScores) {
			pFake = state.UploadScores[i]
		}
		switch {
		case write:
			s.ingestLocked(u, pFake)
		case s.trust != nil && s.cfg.IngestAccepted:
			s.trust.ReplayUpload(u, pFake, uploadEventTime(u))
		}
	}
	// Resume recovered in-flight sessions; one the streaming layer cannot
	// hold (disabled, over limit, or inconsistent) is aborted cleanly with
	// a journaled verdict so recovery never replays it again.
	for _, st := range state.Sessions {
		if s.stream != nil && s.stream.RestoreSession(st) == nil {
			continue
		}
		if s.cfg.Persist != nil {
			s.cfg.Persist.enqueueLocked(persistEntry{
				kind: entrySessionVerdict, sessID: st.ID, outcome: sessionAborted,
			})
		}
	}
	return nil
}

// Close drains the persistence queue, takes a final snapshot, and closes
// the log. Shut the HTTP server down first so no uploads are in flight.
// Without persistence it is a no-op.
func (s *Service) Close() error {
	if s.cfg.Persist == nil {
		return nil
	}
	return s.cfg.Persist.close()
}

// snapshotLocked captures the state a snapshot persists. Called with s.mu
// held (by the compaction protocol in persist.go).
func (s *Service) snapshotLocked() snapshotData {
	st := snapshotData{Accepted: s.accepted, Rejected: s.rejected}
	st.History = append([]*trajectory.T(nil), s.history...)
	if s.cfg.WiFi != nil {
		st.Records = s.cfg.WiFi.Store.Records()
	}
	if s.stream != nil {
		st.Sessions = s.stream.SnapshotSessions()
	}
	if s.trust != nil {
		ts := s.trust.State()
		st.Trust = &ts
	}
	return st
}

// StageStats is the cumulative timing of one processing stage.
type StageStats struct {
	// Count is how many uploads ran the stage (skipped stages don't count).
	Count int64 `json:"count"`
	// TotalMicros is the cumulative wall time, microseconds.
	TotalMicros int64 `json:"total_micros"`
	// AvgMicros is TotalMicros / Count (0 when the stage never ran).
	AvgMicros float64 `json:"avg_micros"`
	// P99Micros is the 99th-percentile stage latency, from a log-bucketed
	// histogram (within ~6% of exact, never under-stated).
	P99Micros int64 `json:"p99_micros"`
}

// Stats is the provider's counters, including per-stage verification
// timings — the operational view of where upload latency goes.
type Stats struct {
	Accepted int                   `json:"accepted"`
	Rejected int                   `json:"rejected"`
	History  int                   `json:"history"`
	Stages   map[string]StageStats `json:"stages"`
	// InternalErrors counts uploads that failed inside the pipeline and
	// were answered with 500 — they are in neither Accepted nor Rejected,
	// so without this counter they would vanish from the accounting.
	InternalErrors int64 `json:"internal_errors"`
	// DeadlineRejects counts uploads cut off mid-pipeline by the upload
	// timeout or a client disconnect; DegradedRejects counts uploads
	// refused with 503 while the persistence breaker was open.
	DeadlineRejects int64 `json:"deadline_rejects"`
	DegradedRejects int64 `json:"degraded_rejects"`
	// Admission reports the overload-shedding state when MaxInFlight is
	// configured.
	Admission *resilience.AdmissionStats `json:"admission,omitempty"`
	// Dedup reports the idempotency-key replay cache.
	Dedup *DedupStats `json:"dedup,omitempty"`
	// Persistence reports the WAL/snapshot state when a data directory is
	// configured.
	Persistence *PersistStats `json:"persistence,omitempty"`
	// Cluster reports distributed-store state when the WiFi detector runs
	// against a multi-node cluster backend: assignment epoch, per-node
	// tile occupancy, forwarded-request and halo-update counters, and
	// whether a tile migration is in flight.
	Cluster *cluster.StoreStats `json:"cluster,omitempty"`
	// Sessions reports the streaming verification lifecycle when the
	// /v1/session endpoints are enabled.
	Sessions *stream.Stats `json:"sessions,omitempty"`
	// Trust reports the poisoning-resistance pipeline when one is
	// configured: contributor counts, trust histogram, quarantine depth,
	// and per-tile provenance with drift-alarm state.
	Trust *trust.Stats `json:"trust,omitempty"`
}

// statsMaxTiles caps the per-tile provenance list in /v1/stats so a
// city-scale store cannot blow up the stats payload.
const statsMaxTiles = 64

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	stages := make(map[string]StageStats, len(stageNames))
	for i, name := range stageNames {
		n := s.stages[i].count.Load()
		us := s.stages[i].nanos.Load() / 1e3
		st := StageStats{Count: n, TotalMicros: us}
		if n > 0 {
			st.AvgMicros = float64(us) / float64(n)
			st.P99Micros = s.stages[i].hist.Quantile(0.99).Microseconds()
		}
		stages[name] = st
	}
	var ps *PersistStats
	if s.cfg.Persist != nil {
		ps = s.cfg.Persist.stats()
	}
	var cl *cluster.StoreStats
	if s.cfg.WiFi != nil {
		if cs, ok := s.cfg.WiFi.Store.(*cluster.Store); ok {
			v := cs.Stats()
			cl = &v
		}
	}
	var adm *resilience.AdmissionStats
	if s.admission != nil {
		v := s.admission.Stats()
		adm = &v
	}
	dd := s.dedup.stats()
	var sess *stream.Stats
	if s.stream != nil {
		v := s.stream.Stats()
		sess = &v
	}
	var tr *trust.Stats
	if s.trust != nil {
		v := s.trust.Stats(statsMaxTiles)
		tr = &v
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Accepted: s.accepted, Rejected: s.rejected, History: len(s.history),
		Stages:          stages,
		InternalErrors:  s.internalErrors.Load(),
		DeadlineRejects: s.deadlineRejects.Load(),
		DegradedRejects: s.degradedRejects.Load(),
		Admission:       adm,
		Dedup:           &dd,
		Persistence:     ps,
		Cluster:         cl,
		Sessions:        sess,
		Trust:           tr,
	}
}

// observeStage charges the elapsed time since start to stage i.
func (s *Service) observeStage(i int, start time.Time) {
	d := time.Since(start)
	s.stages[i].count.Add(1)
	s.stages[i].nanos.Add(d.Nanoseconds())
	s.stages[i].hist.Observe(d)
}

// uploadPoint is the wire form of one fix plus its scan.
type uploadPoint struct {
	Lat  float64            `json:"lat"`
	Lon  float64            `json:"lon"`
	Time int64              `json:"time"` // Unix milliseconds
	Scan []wifi.Observation `json:"scan,omitempty"`
}

// UploadRequest is the wire form of a trajectory upload.
type UploadRequest struct {
	ID   string `json:"id,omitempty"`
	Mode string `json:"mode,omitempty"`
	// Contributor identifies the uploader for the provenance/trust
	// pipeline; empty means the legacy anonymous contributor.
	Contributor string        `json:"contributor,omitempty"`
	Points      []uploadPoint `json:"points"`
}

// checkIdentity bounds an upload's or session's id and contributor by the
// narrowest codec that must carry each: the WAL writes both as str16, and
// the shard transport's record codec writes the contributor as str8. Like
// a scan, an identity no codec can carry is a bad request, not a
// persistence or ingest failure discovered after the upload was accepted.
func checkIdentity(id, contributor string) error {
	if len(id) > math.MaxUint16 {
		return fmt.Errorf("id is %d bytes, limit %d", len(id), math.MaxUint16)
	}
	if len(contributor) > math.MaxUint8 {
		return fmt.Errorf("contributor is %d bytes, limit %d", len(contributor), math.MaxUint8)
	}
	return nil
}

// decode converts the wire request into internal types.
func (s *Service) decode(req *UploadRequest) (*wifi.Upload, error) {
	if err := checkIdentity(req.ID, req.Contributor); err != nil {
		return nil, err
	}
	if len(req.Points) < 2 {
		return nil, fmt.Errorf("trajectory needs >= 2 points, got %d", len(req.Points))
	}
	if len(req.Points) > s.cfg.MaxPoints {
		return nil, fmt.Errorf("trajectory has %d points, limit %d", len(req.Points), s.cfg.MaxPoints)
	}
	t := &trajectory.T{ID: req.ID}
	if req.Mode != "" {
		m, err := trajectory.ParseMode(req.Mode)
		if err != nil {
			return nil, err
		}
		t.Mode = m
	}
	pts, scans, anyScan, err := s.decodePoints(req.Points)
	if err != nil {
		return nil, err
	}
	t.Points = pts
	if err := t.Validate(500 * time.Millisecond); err != nil {
		return nil, err
	}
	if !anyScan && (s.cfg.RequireScans || s.cfg.WiFi != nil) {
		return nil, errors.New("upload carries no WiFi scans")
	}
	return &wifi.Upload{Traj: t, Scans: scans, Contributor: req.Contributor}, nil
}

// decodePoints converts wire points into projected plane points and scans —
// the shared half of batch and streaming decoding. Trajectory-level rules
// (length, timing) stay with the callers: the batch decoder validates the
// whole trajectory at once, while the stream manager enforces them
// incrementally across chunk boundaries. Every scan must pass the encoders'
// own range check here, whatever wire form it arrived in: a reading the WAL
// or the shard transport cannot carry is a bad request, not a persistence
// failure to be discovered after the upload was accepted.
func (s *Service) decodePoints(points []uploadPoint) ([]trajectory.Point, []wifi.Scan, bool, error) {
	pts := make([]trajectory.Point, len(points))
	scans := make([]wifi.Scan, len(points))
	var anyScan bool
	for i, p := range points {
		ll := geo.LatLon{Lat: p.Lat, Lon: p.Lon}
		if !ll.Valid() {
			return nil, nil, false, fmt.Errorf("point %d: invalid coordinate %v", i, ll)
		}
		pts[i] = trajectory.Point{
			Pos:  s.cfg.Projection.ToPlane(ll),
			Time: time.UnixMilli(p.Time).UTC(),
		}
		if err := binenc.CheckScan(p.Scan); err != nil {
			return nil, nil, false, fmt.Errorf("point %d: %w", i, err)
		}
		if len(p.Scan) > 0 {
			scans[i] = wifi.Scan(p.Scan)
			anyScan = true
		} else {
			scans[i] = wifi.Scan{}
		}
	}
	return pts, scans, anyScan, nil
}

// Verify runs the full pipeline on an already-decoded upload. The context
// is consulted before every stage: a request that was shed, timed out, or
// whose client disconnected stops burning pipeline CPU at the next stage
// boundary instead of running the remaining detectors to completion.
func (s *Service) Verify(ctx context.Context, u *wifi.Upload) (Verdict, error) {
	return s.verify(ctx, u, "")
}

// verify is Verify for a batch upload (sessionID "") or for the assembled
// upload of a closing session, whose WiFi stage reuses the confidences the
// session's appends computed wherever the backend proves them still exact.
func (s *Service) verify(ctx context.Context, u *wifi.Upload, sessionID string) (Verdict, error) {
	v := Verdict{Checks: map[string]string{
		"rules":  "skipped",
		"route":  "skipped",
		"replay": "skipped",
		"motion": "skipped",
		"wifi":   "skipped",
	}}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	if s.cfg.Rules != nil {
		start := time.Now()
		vs := s.cfg.Rules.Check(u.Traj)
		s.observeStage(stageRules, start)
		if len(vs) > 0 {
			v.Checks["rules"] = "fail"
			v.Reason = "physically implausible motion: " + vs[0].String()
			return v, nil
		}
		v.Checks["rules"] = "pass"
	}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	if s.cfg.Route != nil {
		start := time.Now()
		irrational := s.cfg.Route.IsIrrational(u.Traj)
		s.observeStage(stageRoute, start)
		if irrational {
			v.Checks["route"] = "fail"
			v.Reason = "trajectory does not follow the road network"
			return v, nil
		}
		v.Checks["route"] = "pass"
	}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	if s.cfg.Replay != nil {
		start := time.Now()
		s.mu.RLock()
		isReplay := s.cfg.Replay.IsReplay(u.Traj)
		s.mu.RUnlock()
		s.observeStage(stageReplay, start)
		if isReplay {
			v.Checks["replay"] = "fail"
			v.Reason = "trajectory replays a historical record"
			return v, nil
		}
		v.Checks["replay"] = "pass"
	}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	if s.cfg.Motion != nil {
		start := time.Now()
		p := s.cfg.Motion.ProbReal(u.Traj)
		s.observeStage(stageMotion, start)
		v.MotionProbReal = &p
		if p < 0.5 {
			v.Checks["motion"] = "fail"
			v.Reason = "motion characteristics inconsistent with real movement"
			return v, nil
		}
		v.Checks["motion"] = "pass"
	}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	if s.cfg.WiFi != nil {
		// The two halves of the WiFi countermeasure are timed separately:
		// feature extraction runs the scratch-buffered rssimap path (no
		// per-point allocation), scoring runs the compiled flat-forest
		// kernel. Together they are exactly detect.ProbFake, so the verdict
		// is bit-identical to the single-call path.
		start := time.Now()
		feat, err := s.features(ctx, u, sessionID)
		s.observeStage(stageFeatures, start)
		if err != nil {
			return v, fmt.Errorf("server: wifi check: %w", err)
		}
		start = time.Now()
		p := s.cfg.WiFi.Model.PredictProb(feat)
		s.observeStage(stageScore, start)
		v.WiFiProbFake = &p
		if p >= 0.5 {
			v.Checks["wifi"] = "fail"
			v.Reason = "reported RSSIs inconsistent with crowdsourced history"
			return v, nil
		}
		v.Checks["wifi"] = "pass"
	}

	v.Accepted = true
	return v, nil
}

// features extracts the Eq. 8 vector for the WiFi stage, carrying the
// request's context into the backend (a cluster bounds its node RPCs by the
// deadline). A session close goes through the stream manager, which hands
// the backend the session's append-time answers; a batch upload has none.
func (s *Service) features(ctx context.Context, u *wifi.Upload, sessionID string) ([]float64, error) {
	if sessionID != "" {
		return s.stream.CloseFeatures(ctx, sessionID, u, s.cfg.WiFi.Store, s.cfg.WiFi.Features)
	}
	return rssimap.Features(ctx, s.cfg.WiFi.Store, u, s.cfg.WiFi.Features)
}

// record updates counters and, on acceptance, the provider history. The
// WAL enqueue happens under the same lock as the state change, so frame
// order always matches ingestion order — the invariant that makes recovery
// bit-identical.
func (s *Service) record(u *wifi.Upload, v Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.Accepted {
		s.accepted++
		s.history = append(s.history, u.Traj)
		if s.cfg.Replay != nil {
			s.cfg.Replay.AddHistory(u.Traj)
		}
		pFake := verdictScore(v)
		s.ingestLocked(u, pFake)
		if s.cfg.Persist != nil {
			s.cfg.Persist.enqueueLocked(persistEntry{accepted: true, upload: u, pFake: pFake})
		}
		return
	}
	s.rejected++
	if s.cfg.Persist != nil {
		s.cfg.Persist.enqueueLocked(persistEntry{accepted: false})
	}
}

// verdictScore extracts the WiFi detector's pFake from a verdict; 0 when
// the detector did not run.
func verdictScore(v Verdict) float64 {
	if v.WiFiProbFake != nil {
		return *v.WiFiProbFake
	}
	return 0
}

// ingestLocked feeds one accepted upload into the crowdsourced store —
// directly, or through the trust pipeline when one is configured. Called
// with s.mu held; the WAL replay in Restore takes the identical path, so
// a recovered store (and trust state) matches the live one bit-identically.
func (s *Service) ingestLocked(u *wifi.Upload, pFake float64) {
	if !s.cfg.IngestAccepted || s.cfg.WiFi == nil {
		return
	}
	if s.trust != nil {
		s.trust.IngestUpload(u, pFake, uploadEventTime(u))
		return
	}
	s.cfg.WiFi.Store.AddUploads([]*wifi.Upload{u})
}

// uploadEventTime is the event clock the trust pipeline runs on: the
// upload's latest point time. Wall clocks would make WAL replay diverge
// from live ingestion; point times are journaled bit-exact.
func uploadEventTime(u *wifi.Upload) time.Time {
	if n := len(u.Traj.Points); n > 0 {
		return u.Traj.Points[n-1].Time
	}
	return time.Time{}
}

// Health is the /v1/health body. Live is true whenever the process
// serves; Ready and Degraded track the persistence circuit breaker and
// the distributed store: an open (or probing) breaker means acks would
// not survive a crash, and a cluster tile with no live replica (or a
// migration/failover in flight) means answers could be partial — either
// way the service reports degraded with a non-200 status and a reason
// rather than lie about its guarantees.
type Health struct {
	Status   string `json:"status"` // "ok" or "degraded"
	Live     bool   `json:"live"`
	Ready    bool   `json:"ready"`
	Degraded bool   `json:"degraded"`
	// Breaker is the persistence breaker state when one is armed.
	Breaker string `json:"breaker,omitempty"`
	// Reason says what is degraded when Degraded is set.
	Reason string `json:"reason,omitempty"`
}

// TrustWeight returns the trust pipeline's current weight for a
// contributor, or 1.0 when no pipeline is configured (every contributor
// fully trusted — matching the unweighted store).
func (s *Service) TrustWeight(name string) float64 {
	if s.trust == nil {
		return 1.0
	}
	return s.trust.Weight(name)
}

// Health reports the service's liveness/readiness/degradation state.
func (s *Service) Health() Health {
	h := Health{Status: "ok", Live: true, Ready: true}
	if s.cfg.Persist != nil {
		if b := s.cfg.Persist.breakerStats(); b != nil {
			h.Breaker = b.State
		}
		if s.cfg.Persist.degraded() {
			h.Status = "degraded"
			h.Ready = false
			h.Degraded = true
			h.Reason = "persistence unavailable"
		}
	}
	if s.cfg.WiFi != nil {
		if cs, ok := s.cfg.WiFi.Store.(*cluster.Store); ok {
			if deg, reason := cs.HealthStatus(); deg {
				h.Status = "degraded"
				h.Ready = false
				h.Degraded = true
				if h.Reason == "" {
					h.Reason = reason
				}
			}
		}
	}
	if s.trust != nil {
		if reason := s.trust.DriftAlarmReason(); reason != "" {
			// A drift alarm is a data-quality signal, not a serving outage:
			// the node stays Ready (load balancers should not eject it) but
			// reports degraded so operators see the suspected poisoning.
			h.Status = "degraded"
			h.Degraded = true
			if h.Reason == "" {
				h.Reason = reason
			}
		}
	}
	return h
}

// Handler returns the HTTP mux of the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trajectory", s.handleUpload)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/session/open", s.handleSessionOpen)
	mux.HandleFunc("/v1/session/append", s.handleSessionAppend)
	mux.HandleFunc("/v1/session/close", s.handleSessionClose)
	return mux
}

// writeMethodNotAllowed answers 405 with the mandatory Allow header
// (RFC 9110 §15.5.6) listing the methods the endpoint does accept.
func writeMethodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": allow + " only"})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	h := s.Health()
	code := http.StatusOK
	if h.Degraded {
		// Cluster-only degradation has no breaker to consult; a flat 1s
		// backoff keeps probes cheap while replicas heal.
		retry := time.Second
		if s.cfg.Persist != nil && s.cfg.Persist.degraded() {
			retry = s.cfg.Persist.retryAfter()
		}
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, floored at 1 (a zero Retry-After invites an immediate retry
// storm).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Service) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost)
		return
	}

	// Fail closed while the persistence breaker is open: an ack now would
	// promise a durability the WAL cannot deliver, so shed with 503 until
	// the half-open probe heals the log.
	if s.cfg.Persist != nil && s.cfg.Persist.degraded() {
		s.degradedRejects.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Persist.retryAfter()))
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "service degraded: persistence unavailable"})
		return
	}

	// A retried Idempotency-Key replays the verdict already recorded for
	// it: the original's side effects (history, store ingestion, WAL
	// frame) happened exactly once even if the client never saw the ack.
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

	decodeStart := time.Now()
	req, ok := readUploadRequest(w, r)
	if !ok {
		return
	}
	u, err := s.decode(req)
	s.observeStage(stageDecode, decodeStart)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	verdict, err := s.Verify(ctx, u)
	if err != nil {
		if ctx.Err() != nil {
			// The deadline or the client cut the pipeline short; nothing
			// was recorded, so a retry is safe and cheap to invite.
			s.deadlineRejects.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": "upload deadline exceeded"})
			return
		}
		s.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	persistStart := time.Now()
	s.record(u, verdict)
	s.observeStage(stagePersist, persistStart)
	if key != "" {
		s.dedup.put(key, verdict)
	}
	writeJSON(w, http.StatusOK, verdict)
}

// readUploadRequest reads one upload request body in whichever wire form
// the Content-Type negotiates — ContentTypeBinary for the binary frame
// codec, JSON for everything else (the default wire form) — answering
// 400/413 itself. It reports whether a request was produced.
func readUploadRequest(w http.ResponseWriter, r *http.Request) (*UploadRequest, bool) {
	if !isBinaryRequest(r) {
		var req UploadRequest
		if !decodeBody(w, r, &req) {
			return nil, false
		}
		return &req, true
	}
	data, ok := readBinaryBody(w, r)
	if !ok {
		return nil, false
	}
	req, err := ParseUploadBinary(data)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return nil, false
	}
	return req, true
}

// isBinaryRequest reports whether the request negotiated the binary wire
// form. Parameters after the media type (charset and friends) are
// tolerated; any other Content-Type falls back to JSON, the default.
func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeBinary
}

// readBinaryBody slurps a binary request body under the same 16 MiB cap
// the JSON decoder enforces, answering 413/400 itself.
func readBinaryBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return nil, false
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "read body: " + err.Error()})
		return nil, false
	}
	return data, true
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding errors after the header is written can only be logged; for
	// this substrate they are ignored (the client sees a truncated body).
	_ = json.NewEncoder(w).Encode(v)
}
