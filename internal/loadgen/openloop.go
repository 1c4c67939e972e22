package loadgen

// This file is the open-loop arrival engine. Unlike the closed-loop
// scenarios — whose fixed worker pools implicitly back off when the server
// slows, hiding coordinated omission — the open-loop engine draws every
// request's send time from a schedule fixed before the run starts: Poisson
// arrivals with a diurnal (two-peak commuter) rate curve over the
// simulated city, dispatched independently of server response times.
// Latency is measured from the *intended* send time, so queueing delay the
// server induces is part of the number, not silently absorbed.
//
// The schedule is generated in *unit time* (mean interarrival = 1) and
// scaled by the offered rate only at dispatch, so the workload digest —
// SHA-256 over every arrival offset and every pre-encoded request body —
// is a pure function of the seed, independent of the capacity measured on
// the host running the sweep.
//
// One run mixes four tagged traffic classes over the city's agents:
//
//	honest        one-shot batch uploads of genuine mobility trips
//	honest_stream /v1/session streaming sessions with a fixed chunk cadence
//	nav_attack    replayed navigation forgeries (internal/attack) with
//	              historical scans replayed from elsewhere in the city
//	spoof_jump    GNSS-spoofing-style teleports: claimed positions jump
//	              mid-track, scans keep reporting the true path
//
// The sweep offers multiples of the measured closed-loop capacity
// (0.25x → 4x), records latency-vs-offered-load curves, shed (429) ratios
// and per-class verdict accuracy, and runs against both the single-process
// provider and a multi-node shard-cluster backend.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/dataset"
	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/shardstore"
	"trajforge/internal/stream"
	"trajforge/internal/wifi"
)

// Traffic class tags; every event carries exactly one.
const (
	ClassHonest       = "honest"
	ClassHonestStream = "honest_stream"
	ClassNavAttack    = "nav_attack"
	ClassSpoofJump    = "spoof_jump"
)

// OpenLoopOptions configures the open-loop sweep.
type OpenLoopOptions struct {
	// Seed fixes the city, the schedule, and every request byte. Default 1.
	Seed int64
	// Events is the number of arrival events one 1x load point dispatches;
	// points above 1x use a proportionally longer prefix of the same pool.
	// Default 250.
	Events int
	// Multipliers are the offered-load points as multiples of the measured
	// closed-loop capacity. Default {0.25, 0.5, 1, 2, 4}.
	Multipliers []float64
	// Agents, Hist, Points configure the city model (see CityOptions).
	Agents int
	Hist   int
	Points int
	// StreamFrac, NavFrac, SpoofFrac are the traffic class probabilities;
	// the remainder is honest batch uploads. Defaults 0.20, 0.15, 0.10.
	StreamFrac float64
	NavFrac    float64
	SpoofFrac  float64
	// Chunks is the append count per streaming session; ChunkGap is the
	// real-time cadence between a session's requests (clients stream at
	// their own pace regardless of offered load). Defaults 4, 300ms.
	Chunks   int
	ChunkGap time.Duration
	// CalWorkers is the closed-loop calibration pool; it defaults to
	// MaxInFlight so calibration saturates the pipeline without shedding.
	CalWorkers int
	// MaxInFlight/QueueDepth arm the provider's admission control so the
	// ≥1x points shed with 429 instead of queueing without bound.
	// Defaults 8, 16.
	MaxInFlight int
	QueueDepth  int
	// Nodes is the shard-node count of the cluster backend. Default 3.
	Nodes int
	// SkipCluster runs the single-process backend only.
	SkipCluster bool
	// HTTPClient overrides the default tuned client.
	HTTPClient *http.Client
}

func (o *OpenLoopOptions) setDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Events <= 0 {
		o.Events = 250
	}
	if len(o.Multipliers) == 0 {
		o.Multipliers = []float64{0.25, 0.5, 1, 2, 4}
	}
	if o.Agents <= 0 {
		o.Agents = 120
	}
	if o.Hist <= 0 {
		o.Hist = 90
	}
	if o.Points <= 0 {
		o.Points = 20
	}
	if o.StreamFrac == 0 {
		o.StreamFrac = 0.20
	}
	if o.NavFrac == 0 {
		o.NavFrac = 0.15
	}
	if o.SpoofFrac == 0 {
		o.SpoofFrac = 0.10
	}
	if o.Chunks <= 0 {
		o.Chunks = 4
	}
	if o.Chunks > o.Points {
		o.Chunks = o.Points
	}
	if o.ChunkGap <= 0 {
		o.ChunkGap = 300 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CalWorkers <= 0 {
		o.CalWorkers = o.MaxInFlight
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
}

// olEvent is one scheduled arrival: a batch upload or a whole streaming
// session, pre-encoded at build time.
type olEvent struct {
	// Unit is the arrival time in unit-rate time (mean interarrival 1);
	// dispatch scales it by the offered event rate.
	Unit  float64
	Class string
	// Expected is the ground-truth verdict (accept for honest classes).
	Expected bool
	// Body is the one-shot upload request (batch classes).
	Body []byte
	// Open/Appends/Close are the session requests (honest_stream only).
	Open    []byte
	Appends [][]byte
	Close   []byte
}

func (e *olEvent) requests() int {
	if e.Class == ClassHonestStream {
		return 2 + len(e.Appends)
	}
	return 1
}

// OpenLoopWorkload is the deterministic open-loop event pool plus the city
// it was generated over.
type OpenLoopWorkload struct {
	City   *City
	Events []olEvent
	// Digest is hex SHA-256 over every event's class, unit-time arrival
	// offset, and request bodies, in pool order — the seed-reproducibility
	// witness. It is independent of the measured capacity by construction.
	Digest string
	// Hist and Projection alias the city's (the self-hosted provider
	// trains from Hist).
	Hist       []*wifi.Upload
	Projection *geo.Projection
	// ClassMix counts pool events per class.
	ClassMix map[string]int
}

// BuildOpenLoop builds the city, draws the unit-time diurnal Poisson
// schedule, and pre-encodes every event's request bytes.
func BuildOpenLoop(opts OpenLoopOptions) (*OpenLoopWorkload, error) {
	opts.setDefaults()
	city, err := BuildCity(CityOptions{
		Seed: opts.Seed, Agents: opts.Agents, Hist: opts.Hist, Points: opts.Points,
	})
	if err != nil {
		return nil, err
	}

	maxMult := 1.0
	for _, m := range opts.Multipliers {
		if m > maxMult {
			maxMult = m
		}
	}
	pool := int(math.Ceil(float64(opts.Events) * maxMult))

	// Nonhomogeneous Poisson arrivals by thinning (Lewis-Shedler): candidate
	// gaps at the envelope rate, accepted with probability λ(hour)/λmax.
	// The normalised curve has unit mean, so the pool spans roughly pool
	// units — one simulated day compressed onto the pool.
	rng := rand.New(rand.NewSource(opts.Seed + 29))
	units := make([]float64, 0, pool)
	t := 0.0
	for len(units) < pool {
		t += rng.ExpFloat64() / diurnalMax
		h := math.Mod(t/float64(pool)*24, 24)
		if rng.Float64()*diurnalMax <= diurnalRate(h)/diurnalMean {
			units = append(units, t)
		}
	}

	w := &OpenLoopWorkload{
		City: city, Hist: city.Hist, Projection: city.Projection,
		ClassMix: make(map[string]int),
	}
	enc := server.NewClient("", city.Projection)
	hash := sha256.New()
	for i := 0; i < pool; i++ {
		a := city.Agents[rng.Intn(len(city.Agents))]
		r := rng.Float64()
		ev := olEvent{Unit: units[i]}
		var u *wifi.Upload
		switch {
		case r < opts.SpoofFrac:
			ev.Class = ClassSpoofJump
			if u, err = city.SpoofJumpUpload(rng, a); err != nil {
				return nil, fmt.Errorf("loadgen: openloop event %d: %w", i, err)
			}
			u.Traj.ID = fmt.Sprintf("ol-spoof-%d", i)
		case r < opts.SpoofFrac+opts.NavFrac:
			ev.Class = ClassNavAttack
			if u, err = city.NavAttackUpload(rng, a, city.Hist); err != nil {
				return nil, fmt.Errorf("loadgen: openloop event %d: %w", i, err)
			}
			u.Traj.ID = fmt.Sprintf("ol-nav-%d", i)
		case r < opts.SpoofFrac+opts.NavFrac+opts.StreamFrac:
			ev.Class = ClassHonestStream
			ev.Expected = true
			if u, err = city.HonestUpload(rng, a); err != nil {
				return nil, fmt.Errorf("loadgen: openloop event %d: %w", i, err)
			}
		default:
			ev.Class = ClassHonest
			ev.Expected = true
			if u, err = city.HonestUpload(rng, a); err != nil {
				return nil, fmt.Errorf("loadgen: openloop event %d: %w", i, err)
			}
			u.Traj.ID = fmt.Sprintf("ol-real-%d", i)
		}

		if ev.Class == ClassHonestStream {
			id := fmt.Sprintf("ol-sess-%04d", i)
			mode := ""
			if u.Traj.Mode != 0 {
				mode = u.Traj.Mode.String()
			}
			if ev.Open, err = json.Marshal(server.SessionOpenRequest{ID: id, Mode: mode}); err != nil {
				return nil, err
			}
			n := u.Traj.Len()
			for c := 0; c < opts.Chunks; c++ {
				lo, hi := c*n/opts.Chunks, (c+1)*n/opts.Chunks
				if lo == hi {
					continue
				}
				req, err := enc.BuildSessionAppend(id, len(ev.Appends), u, lo, hi)
				if err != nil {
					return nil, fmt.Errorf("loadgen: openloop session %d chunk %d: %w", i, c, err)
				}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				ev.Appends = append(ev.Appends, body)
			}
			if ev.Close, err = json.Marshal(server.SessionCloseRequest{SessionID: id}); err != nil {
				return nil, err
			}
		} else {
			req, err := enc.BuildRequest(u)
			if err != nil {
				return nil, fmt.Errorf("loadgen: openloop encode %d: %w", i, err)
			}
			if ev.Body, err = json.Marshal(req); err != nil {
				return nil, err
			}
		}

		hash.Write([]byte(ev.Class))
		var ub [8]byte
		binary.LittleEndian.PutUint64(ub[:], math.Float64bits(ev.Unit))
		hash.Write(ub[:])
		hash.Write(ev.Body)
		hash.Write(ev.Open)
		for _, b := range ev.Appends {
			hash.Write(b)
		}
		hash.Write(ev.Close)

		w.ClassMix[ev.Class]++
		w.Events = append(w.Events, ev)
	}
	w.Digest = hex.EncodeToString(hash.Sum(nil))
	return w, nil
}

// OLClassStats is the per-class slice of one load point. Sent counts
// logical items (a whole session is one item); Shed counts items lost to a
// 429 on any of their requests; Accuracy is correct verdicts over items
// that received one.
type OLClassStats struct {
	Sent      int     `json:"sent"`
	Completed int     `json:"completed"`
	Shed      int     `json:"shed"`
	Errors    int     `json:"errors"`
	Accepted  int     `json:"accepted"`
	Correct   int     `json:"correct"`
	Accuracy  float64 `json:"accuracy"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// OpenLoopPoint is one offered-load point of the latency-vs-load curve.
// All latency percentiles are measured from the *intended* send time of
// each request; P99FromSendMillis is the conventional send-to-response
// figure for comparison — the difference is the coordinated omission a
// closed-loop harness would hide.
type OpenLoopPoint struct {
	Multiplier        float64 `json:"multiplier"`
	OfferedRPS        float64 `json:"offered_rps"`
	Events            int     `json:"events"`
	RequestsScheduled int     `json:"requests_scheduled"`
	RequestsSent      int     `json:"requests_sent"`
	// RequestsSkipped are scheduled requests never sent because their
	// session was abandoned after a shed or error (open-loop clients do
	// not retry; a dead session stays dead).
	RequestsSkipped int     `json:"requests_skipped"`
	Completed       int     `json:"completed"`
	Shed            int     `json:"shed"`
	ShedRatio       float64 `json:"shed_ratio"`
	Errors          int     `json:"errors"`
	DurationSec     float64 `json:"duration_sec"`
	CompletedRPS    float64 `json:"completed_rps"`
	P50Millis       float64 `json:"p50_ms"`
	P95Millis       float64 `json:"p95_ms"`
	P99Millis       float64 `json:"p99_ms"`
	// P99FromSendMillis measures from the actual send instant.
	P99FromSendMillis float64 `json:"p99_from_send_ms"`
	// BatchP99Millis is the p99 (from intended time) of one-shot uploads
	// only — the figure comparable to the closed-loop calibration.
	BatchP99Millis float64 `json:"batch_p99_ms"`
	// DispatchSlackP99Millis is how late the generator itself fired
	// batch/open requests vs their schedule — generator lag, not server
	// queueing. Large values mean the host could not offer the load.
	DispatchSlackP99Millis float64                  `json:"dispatch_slack_p99_ms"`
	Classes                map[string]*OLClassStats `json:"classes"`
}

// OLCalibration is the closed-loop capacity measurement an open-loop
// sweep's multipliers are anchored to.
type OLCalibration struct {
	Uploads             int     `json:"uploads"`
	Workers             int     `json:"workers"`
	CapacityRPS         float64 `json:"capacity_rps"`
	P50Millis           float64 `json:"p50_ms"`
	P99Millis           float64 `json:"p99_ms"`
	SchedSlackP99Millis float64 `json:"sched_slack_p99_ms"`
}

// OLOmissionGap compares open-loop and closed-loop p99 at the same
// throughput in the same run: the measured coordinated-omission gap.
type OLOmissionGap struct {
	Multiplier          float64 `json:"multiplier"`
	ClosedLoopP99Millis float64 `json:"closed_loop_p99_ms"`
	OpenLoopP99Millis   float64 `json:"open_loop_p99_ms"`
	Ratio               float64 `json:"ratio"`
}

// OLBackendResult is one backend's full curve.
type OLBackendResult struct {
	Backend     string           `json:"backend"`
	Nodes       int              `json:"nodes,omitempty"`
	ClosedLoop  *OLCalibration   `json:"closed_loop"`
	Points      []*OpenLoopPoint `json:"points"`
	OmissionGap *OLOmissionGap   `json:"omission_gap,omitempty"`
}

// OpenLoopResult is the "openloop" section of BENCH_openloop.json.
type OpenLoopResult struct {
	Seed           int64          `json:"seed"`
	Agents         int            `json:"agents"`
	Districts      []string       `json:"districts"`
	EventsAt1x     int            `json:"events_at_1x"`
	PoolEvents     int            `json:"pool_events"`
	Multipliers    []float64      `json:"multipliers"`
	ChunkGapMillis float64        `json:"chunk_gap_ms"`
	ClassMix       map[string]int `json:"class_mix"`
	WorkloadDigest string         `json:"workload_digest"`
	Single         *OLBackendResult `json:"single"`
	Cluster        *OLBackendResult `json:"cluster,omitempty"`
}

// RunOpenLoop builds the workload, trains the detector once, and sweeps
// offered load against the single-process backend and (unless skipped) a
// multi-node shard-cluster backend. Every load point gets a fresh provider
// rebuilt around the shared trained model — the replay checker and
// accepted-upload ingestion make providers stateful, so reusing one across
// points would contaminate the curve.
func RunOpenLoop(opts OpenLoopOptions) (*OpenLoopResult, error) {
	opts.setDefaults()
	w, err := BuildOpenLoop(opts)
	if err != nil {
		return nil, err
	}
	det, err := trainDetector(w.Hist, opts.Seed)
	if err != nil {
		return nil, err
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: 512, MaxIdleConnsPerHost: 512,
			},
		}
	}

	res := &OpenLoopResult{
		Seed: opts.Seed, Agents: opts.Agents,
		EventsAt1x: opts.Events, PoolEvents: len(w.Events),
		Multipliers:    opts.Multipliers,
		ChunkGapMillis: float64(opts.ChunkGap.Milliseconds()),
		ClassMix:       w.ClassMix,
		WorkloadDigest: w.Digest,
	}
	for _, d := range w.City.Districts {
		res.Districts = append(res.Districts, d.Name)
	}

	noBackend := func() (rssimap.Backend, func(), error) { return nil, func() {}, nil }
	if res.Single, err = w.runBackend("single", 0, noBackend, det, opts, client); err != nil {
		return nil, err
	}
	if !opts.SkipCluster {
		nStore := len(w.Hist) * 3 / 4
		records := dataset.Records(w.Hist[:nStore])
		clusterBackend := func() (rssimap.Backend, func(), error) {
			return buildLoopbackCluster(opts.Nodes, records)
		}
		if res.Cluster, err = w.runBackend("cluster", opts.Nodes, clusterBackend, det, opts, client); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// buildLoopbackCluster spins n in-process shard nodes plus a coordinator
// store over loopback and seeds it with the provider's records.
func buildLoopbackCluster(n int, records []rssimap.Record) (rssimap.Backend, func(), error) {
	shardCfg := shardstore.DefaultConfig()
	lb, err := cluster.StartLoopback(shardCfg, nodeIDs(n), nil)
	if err != nil {
		return nil, nil, err
	}
	cs, err := cluster.NewStore(cluster.Options{Shard: shardCfg, Nodes: lb.Addrs})
	if err != nil {
		lb.Close()
		return nil, nil, err
	}
	cs.Add(records)
	return cs, func() {
		cs.Close()
		lb.Close()
	}, nil
}

// host builds a fresh provider for one calibration run or load point:
// shared trained model, fresh store/replay state, streaming endpoints on,
// admission armed.
func (w *OpenLoopWorkload) host(det *detect.WiFiDetector, backend rssimap.Backend, opts OpenLoopOptions) (*Server, error) {
	return (&Workload{Hist: w.Hist, Projection: w.Projection}).SelfHostOpts(HostOptions{
		Seed:        opts.Seed,
		Detector:    det,
		WiFiStore:   backend,
		MaxInFlight: opts.MaxInFlight,
		QueueDepth:  opts.QueueDepth,
		Stream:      &stream.Config{},
	})
}

func (w *OpenLoopWorkload) runBackend(name string, nodes int,
	newBackend func() (rssimap.Backend, func(), error),
	det *detect.WiFiDetector, opts OpenLoopOptions, client *http.Client) (*OLBackendResult, error) {

	out := &OLBackendResult{Backend: name, Nodes: nodes}

	// Phase 0: closed-loop calibration on a fresh provider. CalWorkers ==
	// MaxInFlight saturates the pipeline without shedding, so the measured
	// rate is the sustainable verdict throughput the multipliers scale.
	calN := opts.Events
	if calN > len(w.Events) {
		calN = len(w.Events)
	}
	var calBodies [][]byte
	for i := 0; i < calN; i++ {
		if w.Events[i].Class != ClassHonestStream {
			calBodies = append(calBodies, w.Events[i].Body)
		}
	}
	backend, cleanup, err := newBackend()
	if err != nil {
		return nil, err
	}
	srv, err := w.host(det, backend, opts)
	if err != nil {
		cleanup()
		return nil, err
	}
	cal := driveClosed(client, srv.URL, calBodies, opts.CalWorkers)
	srv.Close()
	cleanup()
	if cal.CapacityRPS <= 0 {
		return nil, fmt.Errorf("loadgen: %s calibration measured no capacity", name)
	}
	out.ClosedLoop = cal

	for _, m := range opts.Multipliers {
		n := int(float64(opts.Events)*math.Max(1, m) + 0.5)
		if n > len(w.Events) {
			n = len(w.Events)
		}
		events := w.Events[:n]
		totalReqs := 0
		for i := range events {
			totalReqs += events[i].requests()
		}
		// The offered request rate is m x capacity; arrivals are events, so
		// the event rate divides out the session fan-out.
		eventRate := m * cal.CapacityRPS * float64(n) / float64(totalReqs)

		backend, cleanup, err := newBackend()
		if err != nil {
			return nil, err
		}
		srv, err := w.host(det, backend, opts)
		if err != nil {
			cleanup()
			return nil, err
		}
		point := w.runPoint(client, srv.URL, events, eventRate, opts.ChunkGap)
		srv.Close()
		cleanup()
		point.Multiplier = m
		point.OfferedRPS = m * cal.CapacityRPS
		out.Points = append(out.Points, point)
	}

	// The omission gap compares the batch-upload p99 of the highest point
	// offering at least full capacity against the closed-loop p99 measured
	// moments earlier. Under sustained overload the completed throughput
	// saturates at the same capacity the closed loop achieved, so the two
	// p99s describe the same throughput — but the open-loop one charges the
	// queueing a closed-loop driver silently omits.
	var gapPoint *OpenLoopPoint
	for _, p := range out.Points {
		if p.Multiplier >= 1 && (gapPoint == nil || p.Multiplier > gapPoint.Multiplier) {
			gapPoint = p
		}
	}
	if gapPoint != nil {
		g := &OLOmissionGap{
			Multiplier:          gapPoint.Multiplier,
			ClosedLoopP99Millis: cal.P99Millis,
			OpenLoopP99Millis:   gapPoint.BatchP99Millis,
		}
		if cal.P99Millis > 0 {
			g.Ratio = g.OpenLoopP99Millis / g.ClosedLoopP99Millis
		}
		out.OmissionGap = g
	}
	return out, nil
}

// driveClosed is the calibration loop: a fixed worker pool sending batch
// bodies back to back — deliberately closed-loop, so its throughput is the
// capacity anchor and its p99 the number the omission gap is measured
// against.
func driveClosed(client *http.Client, baseURL string, bodies [][]byte, workers int) *OLCalibration {
	url := baseURL + "/v1/trajectory"
	type ws struct {
		lats    []float64
		offsets []float64
	}
	stats := make([]ws, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := &stats[g]
			for i := g; i < len(bodies); i += workers {
				t0 := time.Now()
				st.offsets = append(st.offsets, t0.Sub(start).Seconds())
				var v server.Verdict
				postAny(client, url, bodies[i], &v)
				st.lats = append(st.lats, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats, slacks []float64
	for i := range stats {
		lats = append(lats, stats[i].lats...)
		slacks = append(slacks, schedSlacks(stats[i].offsets, elapsed.Seconds())...)
	}
	sort.Float64s(lats)
	sort.Float64s(slacks)
	cal := &OLCalibration{
		Uploads: len(bodies), Workers: workers,
		P50Millis:           percentile(lats, 0.50),
		P99Millis:           percentile(lats, 0.99),
		SchedSlackP99Millis: percentile(slacks, 0.99) * 1000,
	}
	if elapsed > 0 {
		cal.CapacityRPS = float64(len(bodies)) / elapsed.Seconds()
	}
	return cal
}

// olRec is one scheduled request's record.
type olRec struct {
	class   string
	kind    byte // 'u' upload, 'o' open, 'a' append, 'c' close
	sent    bool
	ok      bool
	shed    bool
	errored bool
	latMs   float64 // from intended send time
	sendMs  float64 // from actual send
	slackMs float64 // actual - intended send instant
}

// olOutcome is one logical item's (upload or whole session) summary.
type olOutcome struct {
	class     string
	expected  bool
	completed bool
	accepted  bool
	shed      bool
	errored   bool
}

// runPoint dispatches the event prefix at the given event rate and
// aggregates one load point. Every event runs in its own goroutine and
// fires at its scheduled instant regardless of how the server is doing —
// the defining property of an open-loop generator.
func (w *OpenLoopWorkload) runPoint(client *http.Client, baseURL string,
	events []olEvent, eventRate float64, gap time.Duration) *OpenLoopPoint {

	type plan struct {
		ev    *olEvent
		times []time.Duration // intended offsets, one per request
		recs  []olRec
	}
	plans := make([]plan, len(events))
	scheduled := 0
	for i := range events {
		ev := &events[i]
		p := plan{ev: ev}
		base := time.Duration(ev.Unit / eventRate * float64(time.Second))
		if ev.Class == ClassHonestStream {
			p.times = append(p.times, base)
			for k := 0; k <= len(ev.Appends); k++ {
				p.times = append(p.times, base+time.Duration(k+1)*gap)
			}
		} else {
			p.times = append(p.times, base)
		}
		p.recs = make([]olRec, len(p.times))
		scheduled += len(p.times)
		plans[i] = p
	}

	outcomes := make([]olOutcome, len(events))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plans {
		wg.Add(1)
		go func(p *plan, out *olOutcome) {
			defer wg.Done()
			out.class = p.ev.Class
			out.expected = p.ev.Expected
			if p.ev.Class == ClassHonestStream {
				runSessionEvent(client, baseURL, p.ev, p.times, p.recs, start, out)
			} else {
				runBatchEvent(client, baseURL, p.ev, p.times[0], &p.recs[0], start, out)
			}
		}(&plans[i], &outcomes[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	point := &OpenLoopPoint{
		Events:            len(events),
		RequestsScheduled: scheduled,
		DurationSec:       elapsed.Seconds(),
		Classes:           make(map[string]*OLClassStats),
	}
	var lats, sendLats, slacks, batchLats []float64
	classLats := make(map[string][]float64)
	for i := range plans {
		for _, r := range plans[i].recs {
			if !r.sent {
				point.RequestsSkipped++
				continue
			}
			point.RequestsSent++
			switch {
			case r.shed:
				point.Shed++
			case r.errored:
				point.Errors++
			case r.ok:
				point.Completed++
				lats = append(lats, r.latMs)
				sendLats = append(sendLats, r.sendMs)
				classLats[r.class] = append(classLats[r.class], r.latMs)
				if r.kind == 'u' {
					batchLats = append(batchLats, r.latMs)
				}
			}
			if r.kind == 'u' || r.kind == 'o' {
				slacks = append(slacks, r.slackMs)
			}
		}
	}
	for _, o := range outcomes {
		cs := point.Classes[o.class]
		if cs == nil {
			cs = &OLClassStats{}
			point.Classes[o.class] = cs
		}
		cs.Sent++
		switch {
		case o.completed:
			cs.Completed++
			if o.accepted {
				cs.Accepted++
			}
			if o.accepted == o.expected {
				cs.Correct++
			}
		case o.shed:
			cs.Shed++
		case o.errored:
			cs.Errors++
		}
	}
	for cls, cs := range point.Classes {
		if cs.Completed > 0 {
			cs.Accuracy = float64(cs.Correct) / float64(cs.Completed)
		}
		cl := classLats[cls]
		sort.Float64s(cl)
		cs.P50Millis = percentile(cl, 0.50)
		cs.P99Millis = percentile(cl, 0.99)
	}
	if point.RequestsSent > 0 {
		point.ShedRatio = float64(point.Shed) / float64(point.RequestsSent)
	}
	if elapsed > 0 {
		point.CompletedRPS = float64(point.Completed) / elapsed.Seconds()
	}
	sort.Float64s(lats)
	sort.Float64s(sendLats)
	sort.Float64s(slacks)
	sort.Float64s(batchLats)
	point.P50Millis = percentile(lats, 0.50)
	point.P95Millis = percentile(lats, 0.95)
	point.P99Millis = percentile(lats, 0.99)
	point.P99FromSendMillis = percentile(sendLats, 0.99)
	point.BatchP99Millis = percentile(batchLats, 0.99)
	point.DispatchSlackP99Millis = percentile(slacks, 0.99)
	return point
}

func runBatchEvent(client *http.Client, baseURL string, ev *olEvent,
	sched time.Duration, rec *olRec, start time.Time, out *olOutcome) {

	rec.class = ev.Class
	rec.kind = 'u'
	target := start.Add(sched)
	sleepUntil(target)
	t0 := time.Now()
	rec.slackMs = float64(t0.Sub(target).Nanoseconds()) / 1e6
	var v server.Verdict
	status, err := postAny(client, baseURL+"/v1/trajectory", ev.Body, &v)
	now := time.Now()
	rec.sent = true
	rec.latMs = float64(now.Sub(target).Nanoseconds()) / 1e6
	rec.sendMs = float64(now.Sub(t0).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		rec.errored = true
		out.errored = true
	case status == http.StatusTooManyRequests:
		rec.shed = true
		out.shed = true
	case status != http.StatusOK:
		rec.errored = true
		out.errored = true
	default:
		rec.ok = true
		out.completed = true
		out.accepted = v.Accepted
	}
}

// runSessionEvent streams one session at its fixed chunk cadence. Requests
// within a session are ordered, so a slow ack pushes the next chunk past
// its intended time — that lateness is measured (latency is still taken
// from the intended instant), not hidden. A shed or failed request
// abandons the session, as a real client without retry logic would.
func runSessionEvent(client *http.Client, baseURL string, ev *olEvent,
	times []time.Duration, recs []olRec, start time.Time, out *olOutcome) {

	post := func(idx int, kind byte, path string, body []byte, dst any) (int, bool) {
		rec := &recs[idx]
		rec.class = ev.Class
		rec.kind = kind
		target := start.Add(times[idx])
		sleepUntil(target)
		t0 := time.Now()
		rec.slackMs = float64(t0.Sub(target).Nanoseconds()) / 1e6
		status, err := postAny(client, baseURL+path, body, dst)
		now := time.Now()
		rec.sent = true
		rec.latMs = float64(now.Sub(target).Nanoseconds()) / 1e6
		rec.sendMs = float64(now.Sub(t0).Nanoseconds()) / 1e6
		switch {
		case err != nil:
			rec.errored = true
			out.errored = true
			return status, false
		case status == http.StatusTooManyRequests:
			rec.shed = true
			out.shed = true
			return status, false
		case status != http.StatusOK:
			rec.errored = true
			out.errored = true
			return status, false
		}
		rec.ok = true
		return status, true
	}

	var open server.SessionOpenResponse
	if _, ok := post(0, 'o', "/v1/session/open", ev.Open, &open); !ok {
		return
	}
	for k := range ev.Appends {
		var ack server.SessionAppendResponse
		if _, ok := post(1+k, 'a', "/v1/session/append", ev.Appends[k], &ack); !ok {
			return
		}
		if ack.Rejected {
			// Early exit: the provider rejected the prefix outright — that
			// is the session's final verdict.
			out.completed = true
			out.accepted = false
			return
		}
	}
	var v server.Verdict
	if _, ok := post(len(times)-1, 'c', "/v1/session/close", ev.Close, &v); !ok {
		return
	}
	out.completed = true
	out.accepted = v.Accepted
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// postAny posts a pre-encoded JSON body and decodes the 200 response into
// out; non-200 statuses are returned without error (the caller classifies
// them), transport failures as err.
func postAny(client *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// schedSlacks returns each start offset's lateness (seconds, clamped at 0)
// against a uniform schedule at the achieved rate — the per-worker
// coordinated omission of a closed-loop run.
func schedSlacks(offsets []float64, span float64) []float64 {
	n := len(offsets)
	if n == 0 || span <= 0 {
		return nil
	}
	pace := span / float64(n)
	out := make([]float64, 0, n)
	for j, off := range offsets {
		slack := off - float64(j)*pace
		if slack < 0 {
			slack = 0
		}
		out = append(out, slack)
	}
	return out
}
