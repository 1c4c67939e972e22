package chaos

// The single-process fixture and the batch-upload scenario on it (Run,
// and with the trust pipeline on, RunTrust).
//
// Two invariants are asserted at every crash point:
//
//  1. Acknowledged durability: every upload whose durability barrier
//     (Persistence.Flush) returned success before the crash is present in
//     the recovered state, and the recovered verdict ledger is a clean
//     prefix of the workload's deterministic verdict sequence — recovery
//     never invents, reorders, or partially applies verdicts.
//
//  2. Bit-identical features: the RSSI store rebuilt from the recovered
//     snapshot and WAL answers the feature probe with float64 values
//     bit-for-bit equal (math.Float64bits) to a reference store that
//     ingested the same accepted-upload prefix and never crashed.
//
// RunTrust turns the poisoning-resistant ingestion path (internal/trust)
// on, so every quarantine-store mutation — staging, corroboration,
// promotion, weight push — sits between the WAL frame and the serving
// store at every crash point. Its workload interleaves three contributor
// identities so corroboration (Quarantine.K = 2) promotes some points
// mid-workload while others are still pending at every crash point, and
// the recovery check extends to:
//
//  3. Quarantined points are never served pre-promotion: the recovered
//     serving store holds exactly the reference prefix's record count —
//     recovery re-stages pending points, it does not leak them.
//
//  4. The whole pipeline state (ledger, quarantine, drift, per-tile
//     provenance) recovers to the reference prefix exactly, compared via
//     the /v1/stats trust summary.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
	"trajforge/internal/geo"
	"trajforge/internal/mobility"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/trust"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// The batch workload: uploadCount uploads of uploadPoints fixes each.
const (
	uploadCount  = 12
	uploadPoints = 20
)

var (
	origin = geo.LatLon{Lat: 32.06, Lon: 118.79}
	t0     = time.Date(2022, 7, 1, 9, 0, 0, 0, time.UTC)
)

// motionStub is a programmable motion detector; the workload scripts its
// answer per upload so the verdict sequence mixes accepts and rejects
// deterministically.
type motionStub struct{ prob float64 }

func (m *motionStub) Name() string                     { return "chaos-stub" }
func (m *motionStub) ProbReal(t *trajectory.T) float64 { return m.prob }

// fixture is everything the single-process scenarios share across crash
// points: the trained detector (training is the expensive part and is
// seed-deterministic), the service configuration, the feature probe, and
// the reference outcome of a crash-free run.
type fixture struct {
	proj      *geo.Projection
	bootstrap []rssimap.Record
	model     *xgb.Model
	fcfg      rssimap.FeatureConfig
	stream    *stream.Config // non-nil: streaming endpoints on
	trust     *trust.Config  // non-nil: trust pipeline on
	probe     *wifi.Upload

	// verdicts is the reference verdict sequence in journal order. The
	// slices below are indexed by accepted-verdict count: what the probe's
	// features, the serving store's size and (trust on) the /v1/stats
	// trust summary are once the store holds the bootstrap plus that many
	// accepted uploads.
	verdicts  []bool
	features  [][]float64
	storeLens []int
	trustSt   [][]byte
}

// walkUpload builds one seeded walking upload along the fixture route with
// a constant in-coverage scan per point.
func walkUpload(seed int64, points int) (*wifi.Upload, error) {
	tk, err := mobility.Simulate(rand.New(rand.NewSource(seed)), mobility.Options{
		Route:     []geo.Point{{X: 0, Y: 0}, {X: 300, Y: 0}},
		Mode:      trajectory.ModeWalking,
		Start:     t0,
		Interval:  time.Second,
		MaxPoints: points,
	})
	if err != nil {
		return nil, err
	}
	traj := tk.Trajectory()
	scans := make([]wifi.Scan, traj.Len())
	for i := range scans {
		scans[i] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -60}}
	}
	return &wifi.Upload{Traj: traj, Scans: scans}, nil
}

// forgeScans overwrites every scan with the forged RSSI signature the
// detector is trained to reject.
func forgeScans(u *wifi.Upload) {
	for j := range u.Scans {
		u.Scans[j] = wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -30}}
	}
}

// newFixture builds the seeded bootstrap history, trains the WiFi detector
// on points-long uploads, and draws the probe. Only the records, the model
// and the feature config are kept — every pass builds its own store.
func newFixture(seed int64, points int, scfg *stream.Config, tcfg *trust.Config) (*fixture, error) {
	f := &fixture{
		proj:   geo.NewProjection(origin),
		fcfg:   rssimap.DefaultFeatureConfig(),
		stream: scfg,
		trust:  tcfg,
	}

	// Bootstrap store: a dense crowdsourced history along the route.
	rng := rand.New(rand.NewSource(seed))
	f.bootstrap = make([]rssimap.Record, 400)
	for i := range f.bootstrap {
		m := map[string]int{"02:4e:00:00:00:01": -55 - rng.Intn(20)}
		if rng.Intn(2) == 0 {
			m["02:4e:00:00:00:02"] = -60 - rng.Intn(20)
		}
		f.bootstrap[i] = rssimap.Record{
			Pos:  geo.Point{X: rng.Float64() * 300, Y: rng.NormFloat64() * 3},
			RSSI: m,
		}
	}

	trainStore, err := rssimap.NewStore(rssimap.DefaultConfig(), f.bootstrap)
	if err != nil {
		return nil, err
	}
	real := make([]*wifi.Upload, 4)
	fake := make([]*wifi.Upload, 4)
	for i := range real {
		if real[i], err = walkUpload(seed+int64(700+i), points); err != nil {
			return nil, err
		}
		if fake[i], err = walkUpload(seed+int64(710+i), points); err != nil {
			return nil, err
		}
		forgeScans(fake[i])
	}
	det, err := detect.TrainWiFiDetector(trainStore, real, fake, f.fcfg, xgb.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: train detector: %w", err)
	}
	f.model = det.Model
	if f.probe, err = walkUpload(seed+999, 30); err != nil {
		return nil, err
	}
	return f, nil
}

// boundClient pairs a service's client with its motion stub, which the
// workload scripts before each upload.
type boundClient struct {
	client *server.Client
	stub   *motionStub
}

// newService wires a fresh verification service around the given store in
// the fixture's configuration, optionally persistent. The caller must
// invoke cleanup.
func (f *fixture) newService(p *server.Persistence, store *rssimap.Store) (*server.Service, *boundClient, func(), error) {
	stub := &motionStub{prob: 0.9}
	rc, err := detect.NewReplayChecker(1.2)
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := server.New(server.Config{
		Projection:     f.proj,
		Motion:         stub,
		Replay:         rc,
		WiFi:           &detect.WiFiDetector{Store: store, Model: f.model, Features: f.fcfg},
		IngestAccepted: true,
		Persist:        p,
		Stream:         f.stream,
		Trust:          f.trust,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	cleanup := func() {
		ts.Close()
		svc.Close() // on a crashed FS this fails; recovery is the real check
	}
	return svc, &boundClient{client: server.NewClient(ts.URL, f.proj), stub: stub}, cleanup, nil
}

// reference runs drive against a service with the same pipeline, no
// persistence and no faults, and fixes the reference outcome: drive reports
// each verdict in journal order, and the probe is sampled after every
// accept.
func (f *fixture) reference(drive func(c *boundClient, verdict func(accepted bool) error) error) error {
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), f.bootstrap)
	if err != nil {
		return err
	}
	svc, client, cleanup, err := f.newService(nil, store)
	if err != nil {
		return err
	}
	defer cleanup()
	sample := func() error {
		feat, err := rssimap.Features(context.Background(), store, f.probe, f.fcfg)
		if err != nil {
			return err
		}
		f.features = append(f.features, feat)
		f.storeLens = append(f.storeLens, store.Len())
		if f.trust != nil {
			ts, err := trustSummary(svc)
			if err != nil {
				return err
			}
			f.trustSt = append(f.trustSt, ts)
		}
		return nil
	}
	if err := sample(); err != nil {
		return err
	}
	err = drive(client, func(accepted bool) error {
		f.verdicts = append(f.verdicts, accepted)
		if accepted {
			return sample()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("chaos: reference pass: %w", err)
	}
	if n := len(f.features) - 1; n == 0 || n == len(f.verdicts) {
		return fmt.Errorf("chaos: degenerate workload: %d/%d accepted", n, len(f.verdicts))
	}
	return nil
}

// trustSummary marshals the service's trust stats for exact comparison.
func trustSummary(svc *server.Service) ([]byte, error) {
	st := svc.Stats()
	if st.Trust == nil {
		return nil, fmt.Errorf("chaos: trust pipeline not active")
	}
	return json.Marshal(st.Trust)
}

// workload opens a persistent service over dir on fs and lets drive run the
// scenario's operations against it. durable is the acknowledgement point:
// called after an operation the server acknowledged, it reports whether the
// durability barrier (Persistence.Flush) still succeeds — once it has
// failed, nothing later counts as acknowledged.
func (f *fixture) workload(dir string, fs fsx.FS, drive func(c *boundClient, durable func() bool) error) error {
	p, err := server.OpenPersistence(dir, server.PersistOptions{FS: fs, SyncInterval: -1})
	if err != nil {
		return nil // crash during open: nothing was ever acknowledged
	}
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), f.bootstrap)
	if err != nil {
		return err
	}
	_, client, cleanup, err := f.newService(p, store)
	if err != nil {
		return err
	}
	defer cleanup()
	// The bootstrap store exists only in memory until this first snapshot.
	alive := p.Compact() == nil
	return drive(client, func() bool {
		alive = alive && p.Flush() == nil
		return alive
	})
}

// recover reopens dir with a healthy filesystem, asserts the shared
// recovery invariants for a crash point that acknowledged `acked` verdicts,
// tallies it, and returns the recovered state for scenario-specific
// checks.
func (f *fixture) recover(dir string, acked int, rep *Report) (*server.RecoveredState, error) {
	p, err := server.OpenPersistence(dir, server.PersistOptions{SyncInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("recovery open: %w", err)
	}
	state := p.Recovered()

	// Invariant 1a: the recovered ledger is a prefix of the reference
	// verdict sequence.
	total := state.Accepted + state.Rejected
	if total > len(f.verdicts) {
		return nil, fmt.Errorf("recovered %d verdicts, workload has %d", total, len(f.verdicts))
	}
	wantAccepted := 0
	for _, v := range f.verdicts[:total] {
		if v {
			wantAccepted++
		}
	}
	if state.Accepted != wantAccepted {
		return nil, fmt.Errorf("recovered %d accepted of %d verdicts, want %d (not a prefix)",
			state.Accepted, total, wantAccepted)
	}
	// Invariant 1b: every acknowledged verdict survived.
	if total < acked {
		return nil, fmt.Errorf("recovered %d verdicts, %d were acknowledged durable", total, acked)
	}

	// Invariant 2: rebuild the store through the live recovery path —
	// Restore resumes in-flight sessions and pushes the WAL uploads through
	// the same ingestion code a live accept takes — and compare the probe's
	// features bit-for-bit with the reference prefix.
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), state.Records)
	if err != nil {
		return nil, fmt.Errorf("recovery store: %w", err)
	}
	svc, _, cleanup, err := f.newService(p, store)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if err := svc.Restore(state); err != nil {
		return nil, err
	}
	if acked > rep.MaxAcked {
		rep.MaxAcked = acked
	}
	if state.Empty() {
		if acked > 0 {
			return nil, fmt.Errorf("empty recovery after %d acknowledged verdicts", acked)
		}
		rep.EmptyRecoveries++
		return state, nil
	}
	got, err := rssimap.Features(context.Background(), store, f.probe, f.fcfg)
	if err != nil {
		return nil, fmt.Errorf("recovery features: %w", err)
	}
	if want := f.features[state.Accepted]; !sameBits(got, want) {
		return nil, fmt.Errorf("recovered features %v, want %v (bits differ)", got, want)
	}
	// Invariant 3: the recovered serving store is exactly the reference
	// prefix's size — nothing quarantined leaked into it.
	if store.Len() != f.storeLens[state.Accepted] {
		return nil, fmt.Errorf("recovered serving store holds %d records, reference prefix holds %d",
			store.Len(), f.storeLens[state.Accepted])
	}
	// Invariant 4: ledger, quarantine, drift, and per-tile provenance all
	// recover to the reference prefix exactly.
	if f.trust != nil {
		ts, err := trustSummary(svc)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ts, f.trustSt[state.Accepted]) {
			return nil, fmt.Errorf("recovered trust stats %s, want %s", ts, f.trustSt[state.Accepted])
		}
	}
	if state.Accepted == len(f.features)-1 {
		rep.FullRecoveries++
	}
	return state, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// uploadScenario is the batch-upload workload on the fixture: mostly-real
// uploads with a scripted rejection every 4th. Its observation is the
// number of uploads acknowledged durable before the filesystem died.
type uploadScenario struct {
	*fixture
	uploads []*wifi.Upload
	probs   []float64 // scripted motion answer per upload
}

func newUploadScenario(seed int64, tcfg *trust.Config) (*uploadScenario, error) {
	f, err := newFixture(seed, uploadPoints, nil, tcfg)
	if err != nil {
		return nil, err
	}
	sc := &uploadScenario{fixture: f, uploads: make([]*wifi.Upload, uploadCount), probs: make([]float64, uploadCount)}
	for i := range sc.uploads {
		u, err := walkUpload(seed+int64(800+i), uploadPoints)
		if err != nil {
			return nil, err
		}
		if tcfg != nil {
			// Three colluding-free devices, each upload ten minutes after
			// the last so successive uploads advance the pipeline's event
			// clock — recovery must reproduce ledger aging and quarantine
			// timestamps from the replayed uploads alone.
			u.Contributor = fmt.Sprintf("dev-%c", 'a'+rune(i%3))
			retimeUpload(u, time.Duration(i)*10*time.Minute)
		}
		sc.uploads[i] = u
		sc.probs[i] = 0.9
		if i%4 == 3 {
			sc.probs[i] = 0.1
		}
	}
	err = f.reference(func(c *boundClient, verdict func(bool) error) error {
		for i := range sc.uploads {
			v, err := sc.upload(c, i)
			if err != nil {
				return err
			}
			if err := verdict(v.Accepted); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tcfg != nil {
		// The workload must actually exercise the staging store: some
		// points promoted into serving, some still pending at the end —
		// otherwise the quarantine invariants are vacuous.
		var final trust.Stats
		if err := json.Unmarshal(f.trustSt[len(f.trustSt)-1], &final); err != nil {
			return nil, err
		}
		if final.Promoted == 0 || final.Pending == 0 {
			return nil, fmt.Errorf("chaos: trust workload promoted %d / pending %d, need both > 0",
				final.Promoted, final.Pending)
		}
	}
	return sc, nil
}

// retimeUpload shifts every fix by d.
func retimeUpload(u *wifi.Upload, d time.Duration) {
	pts := make([]trajectory.Point, len(u.Traj.Points))
	for i, p := range u.Traj.Points {
		pts[i] = trajectory.Point{Pos: p.Pos, Time: p.Time.Add(d)}
	}
	u.Traj = &trajectory.T{ID: u.Traj.ID, Mode: u.Traj.Mode, Points: pts}
}

// upload sends workload upload i with its scripted motion answer.
func (sc *uploadScenario) upload(c *boundClient, i int) (*server.Verdict, error) {
	c.stub.prob = sc.probs[i]
	v, err := c.client.Upload(sc.uploads[i])
	if err != nil {
		return nil, fmt.Errorf("upload %d: %w", i, err)
	}
	// The in-memory pipeline never sees the disk fault: once the reference
	// pass has fixed the sequence, every run must reproduce it.
	if i < len(sc.verdicts) && v.Accepted != sc.verdicts[i] {
		return nil, fmt.Errorf("verdict %d = %v, want %v", i, v.Accepted, sc.verdicts[i])
	}
	return v, nil
}

func (sc *uploadScenario) victims() []string { return []string{""} }

func (sc *uploadScenario) run(dir, _ string, fs *faultfs.FS) (acked int, err error) {
	err = sc.workload(dir, fs, func(c *boundClient, durable func() bool) error {
		for i := range sc.uploads {
			if _, err := sc.upload(c, i); err != nil {
				return err
			}
			if durable() {
				acked = i + 1
			}
		}
		return nil
	})
	if err == nil && !fs.Faulted() && acked != len(sc.uploads) {
		err = fmt.Errorf("fault-free run acknowledged %d/%d uploads", acked, len(sc.uploads))
	}
	return acked, err
}

func (sc *uploadScenario) check(dir string, acked int, rep *Report) error {
	if _, err := sc.recover(dir, acked, rep); err != nil {
		return fmt.Errorf("acked %d: %w", acked, err)
	}
	return nil
}

// Run explores every crash point of the fixed batch-upload workload.
func Run(opts Options) (*Report, error) {
	sc, err := newUploadScenario(opts.Seed, nil)
	if err != nil {
		return nil, err
	}
	return explore("batch", sc, opts)
}

// RunTrust explores every crash point of the trust-pipeline workload:
// two-contributor corroboration with no trust bypass, and a weight push
// every other accepted upload so the θ2 table is hot at most crash points.
func RunTrust(opts Options) (*Report, error) {
	tcfg := trust.DefaultConfig()
	tcfg.Quarantine.K = 2
	tcfg.Quarantine.PromoteTrust = 0.99
	tcfg.WeightRefresh = 2
	sc, err := newUploadScenario(opts.Seed, &tcfg)
	if err != nil {
		return nil, err
	}
	return explore("trust", sc, opts)
}
