package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
)

// Span names. Each is one layer of the budget; a span's self time is
// charged to its own layer, so nested spans (the batch stages inside a
// session close) are not counted twice.
const (
	spanRequest   = "request" // root; its self time is the walk's own bookkeeping
	spanWire      = "server.wire"
	spanProject   = "server.project"
	spanRules     = "detect.rules"
	spanReplay    = "detect.replay"
	spanReplayAdd = "detect.replay.add"
	spanFeatures  = "rssimap.features"
	spanIngest    = "rssimap.ingest"
	spanCFeatures = "cluster.features"
	spanCIngest   = "cluster.ingest"
	spanScore     = "xgb.score"
	spanOpen      = "stream.open"
	spanAppend    = "stream.append"
	spanClose     = "stream.close"
	spanWAL       = "wal.append"
)

// offPath marks spans the server does not run while the client waits: the
// WAL append happens on the persistence goroutine, and the shadow store of
// the cluster workload exists only in the traced pass. They are timed but
// left out of the request budget and of the walk's time.
func offPath(name string, clustered bool) bool {
	return name == spanWAL || (clustered && (name == spanFeatures || name == spanIngest))
}

// signature is what one response says, bit for bit: the verdict (accepted
// and P(fake)) of an upload or close, or the provisional state of an append
// ack. The serial walk and the c=1 HTTP pass must produce equal sequences.
type signature struct {
	Flag bool   // verdict accepted / ack rejected
	Bits uint64 // math.Float64bits of P(fake); noScore when the detector did not run
	N    int    // ack: points scored so far
}

const noScore = ^uint64(0)

// verdict is the part of server.Verdict the benchmark accounts with.
type verdict struct {
	accepted   bool
	pFake      *float64
	replayFail bool // checks.replay == "fail"
	wifiRan    bool // checks.wifi != "skipped"
}

func (v verdict) signature() signature {
	s := signature{Flag: v.accepted, Bits: noScore}
	if v.pFake != nil {
		s.Bits = math.Float64bits(*v.pFake)
	}
	return s
}

// pipeline is a fresh provider's components without the HTTP server: the
// serial reference the served verdicts are checked against, and — with a
// tracer — the instrumented walk that yields the per-layer numbers. It calls
// only exported functions, in the order server.Service does.
type pipeline struct {
	w      *world
	tr     *tracer // nil: untraced oracle
	rules  *detect.RuleChecker
	replay *detect.ReplayChecker // nil without the replay gate
	back   *backend
	shadow *rssimap.Store // cluster workload, traced pass only
	stream *stream.Manager
	log    *wal.Log // traced pass only
	dir    string
	probe  *speedProbe

	accepted int
	// Read when the walk ends, before the backend closes.
	records   int    // store size
	forwarded uint64 // confidence RPCs the coordinator sent during the walk
}

func (w *world) newPipeline(p profile, tr *tracer, tmpRoot string) (*pipeline, error) {
	back, err := w.newBackend(p)
	if err != nil {
		return nil, err
	}
	pl := &pipeline{w: w, tr: tr, rules: detect.NewRuleChecker(), back: back, probe: newSpeedProbe()}
	fail := func(err error) (*pipeline, error) {
		pl.close()
		return nil, err
	}
	if p.replay {
		if pl.replay, err = w.newReplay(); err != nil {
			return fail(err)
		}
	}
	if p.sessions {
		pl.stream, err = stream.NewManager(stream.Config{
			Detector: &detect.WiFiDetector{Store: back.store, Model: w.model, Features: w.features},
		})
		if err != nil {
			return fail(err)
		}
	}
	if tr != nil {
		if back.cluster != nil {
			if pl.shadow, err = rssimap.NewStore(rssimap.DefaultConfig(), w.seedRecords); err != nil {
				return fail(err)
			}
		}
		if pl.dir, err = os.MkdirTemp(tmpRoot, "pipeline-"); err != nil {
			return fail(err)
		}
		// Same group-commit interval the provider's PersistOptions default to.
		pl.log, err = wal.Open(filepath.Join(pl.dir, "trace.wal"), wal.Options{SyncInterval: 2 * time.Millisecond})
		if err != nil {
			return fail(err)
		}
	}
	return pl, nil
}

func (pl *pipeline) close() error {
	var err error
	if pl.log != nil {
		err = pl.log.Close()
	}
	if cerr := pl.back.close(); err == nil {
		err = cerr
	}
	if pl.dir != "" {
		if rerr := os.RemoveAll(pl.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// projectPoints is server.decodePoints: wire coordinates to plane points.
func (pl *pipeline) projectPoints(n int, at func(i int) (lat, lon float64, ms int64, scan []wifi.Observation)) ([]trajectory.Point, []wifi.Scan, error) {
	pts := make([]trajectory.Point, n)
	scans := make([]wifi.Scan, n)
	for i := 0; i < n; i++ {
		lat, lon, ms, scan := at(i)
		ll := geo.LatLon{Lat: lat, Lon: lon}
		if !ll.Valid() {
			return nil, nil, fmt.Errorf("point %d: invalid coordinate %v", i, ll)
		}
		pts[i] = trajectory.Point{Pos: pl.w.projection.ToPlane(ll), Time: time.UnixMilli(ms).UTC()}
		if len(scan) > 0 {
			scans[i] = wifi.Scan(scan)
		} else {
			scans[i] = wifi.Scan{}
		}
	}
	return pts, scans, nil
}

// verify is server.Service.Verify over the stages the benchmark arms.
func (pl *pipeline) verify(u *wifi.Upload) (verdict, error) {
	var v verdict
	s := pl.tr.begin(spanRules)
	violations := pl.rules.Check(u.Traj)
	pl.tr.end(s)
	if len(violations) > 0 {
		return v, nil
	}
	if pl.replay != nil {
		s = pl.tr.begin(spanReplay)
		isReplay := pl.replay.IsReplay(u.Traj)
		pl.tr.end(s)
		if isReplay {
			v.replayFail = true
			return v, nil
		}
	}
	v.wifiRan = true
	var feat []float64
	var err error
	if pl.back.cluster != nil {
		s = pl.tr.begin(spanCFeatures)
		feat, err = pl.back.cluster.FeaturesContext(context.Background(), u, pl.w.features)
		pl.tr.end(s)
		if pl.shadow != nil && err == nil {
			s = pl.tr.begin(spanFeatures)
			_, err = pl.shadow.Features(u, pl.w.features)
			pl.tr.end(s)
		}
	} else {
		s = pl.tr.begin(spanFeatures)
		feat, err = pl.back.local.Features(u, pl.w.features)
		pl.tr.end(s)
	}
	if err != nil {
		return v, fmt.Errorf("features: %w", err)
	}
	s = pl.tr.begin(spanScore)
	p := pl.w.model.PredictProb(feat)
	pl.tr.end(s)
	v.pFake = &p
	v.accepted = p < 0.5
	return v, nil
}

// record is server.Service.record: an accepted upload joins the replay
// history and the RSSI store. walPayload stands in for the verdict frame.
func (pl *pipeline) record(u *wifi.Upload, v verdict, walPayload []byte) error {
	if v.accepted {
		pl.accepted++
		if pl.replay != nil {
			s := pl.tr.begin(spanReplayAdd)
			pl.replay.AddHistory(u.Traj)
			pl.tr.end(s)
		}
		ups := []*wifi.Upload{u}
		if pl.back.cluster != nil {
			s := pl.tr.begin(spanCIngest)
			pl.back.cluster.AddUploads(ups)
			pl.tr.end(s)
			if pl.shadow != nil {
				s = pl.tr.begin(spanIngest)
				pl.shadow.AddUploads(ups)
				pl.tr.end(s)
			}
		} else {
			s := pl.tr.begin(spanIngest)
			pl.back.local.AddUploads(ups)
			pl.tr.end(s)
		}
	} else {
		walPayload = walPayload[:1]
	}
	return pl.walAppend(walPayload)
}

// walAppend journals one frame the size the server would: the whole request
// for an accepted upload or a chunk, one byte for a rejection.
func (pl *pipeline) walAppend(payload []byte) error {
	if pl.log == nil {
		return nil
	}
	s := pl.tr.begin(spanWAL)
	err := pl.log.Append(1, payload)
	if err == nil {
		err = pl.log.Sync()
	}
	pl.tr.end(s)
	return err
}

// upload serves one batch request from its wire bytes.
func (pl *pipeline) upload(r request) (verdict, error) {
	root := pl.tr.begin(spanRequest)
	defer pl.tr.end(root)

	s := pl.tr.begin(spanWire)
	var req *server.UploadRequest
	var err error
	if r.binary {
		req, err = server.ParseUploadBinary(r.body)
	} else {
		req = new(server.UploadRequest)
		err = json.Unmarshal(r.body, req)
	}
	pl.tr.end(s)
	if err != nil {
		return verdict{}, fmt.Errorf("wire: %w", err)
	}

	s = pl.tr.begin(spanProject)
	t := &trajectory.T{ID: req.ID}
	if req.Mode != "" {
		if t.Mode, err = trajectory.ParseMode(req.Mode); err != nil {
			return verdict{}, err
		}
	}
	var scans []wifi.Scan
	t.Points, scans, err = pl.projectPoints(len(req.Points), func(i int) (float64, float64, int64, []wifi.Observation) {
		p := req.Points[i]
		return p.Lat, p.Lon, p.Time, p.Scan
	})
	if err == nil {
		err = t.Validate(500 * time.Millisecond)
	}
	pl.tr.end(s)
	if err != nil {
		return verdict{}, fmt.Errorf("decode: %w", err)
	}
	u := &wifi.Upload{Traj: t, Scans: scans, Contributor: req.Contributor}

	v, err := pl.verify(u)
	if err != nil {
		return v, err
	}
	return v, pl.record(u, v, r.body)
}

// session serves one streaming item — open, appends until the early exit
// fires, close — and returns one signature per request sent plus the final
// verdict.
func (pl *pipeline) session(it item) ([]signature, verdict, error) {
	var sigs []signature
	var final verdict
	id := ""
	rejected := false
	for _, r := range it.reqs {
		switch r.kind {
		case kindOpen:
			root := pl.tr.begin(spanRequest)
			s := pl.tr.begin(spanWire)
			var req server.SessionOpenRequest
			err := json.Unmarshal(r.body, &req)
			pl.tr.end(s)
			var mode trajectory.Mode
			if err == nil && req.Mode != "" {
				mode, err = trajectory.ParseMode(req.Mode)
			}
			if err == nil {
				s = pl.tr.begin(spanOpen)
				id, err = pl.stream.OpenAs(req.ID, mode, req.Contributor)
				pl.tr.end(s)
			}
			pl.tr.end(root)
			if err != nil {
				return nil, final, fmt.Errorf("open: %w", err)
			}
			sigs = append(sigs, signature{})

		case kindAppend:
			if rejected {
				continue
			}
			root := pl.tr.begin(spanRequest)
			s := pl.tr.begin(spanWire)
			req, err := server.ParseSessionAppendBinary(r.body)
			pl.tr.end(s)
			var ack stream.Ack
			if err == nil {
				s = pl.tr.begin(spanProject)
				var pts []trajectory.Point
				var scans []wifi.Scan
				pts, scans, err = pl.projectPoints(len(req.Points), func(i int) (float64, float64, int64, []wifi.Observation) {
					p := req.Points[i]
					return p.Lat, p.Lon, p.Time, p.Scan
				})
				pl.tr.end(s)
				if err == nil {
					s = pl.tr.begin(spanAppend)
					ack, _, err = pl.stream.AppendChunk(req.SessionID, req.Seq, pts, scans)
					pl.tr.end(s)
				}
			}
			if err == nil {
				err = pl.walAppend(r.body)
			}
			pl.tr.end(root)
			if err != nil {
				return nil, final, fmt.Errorf("append: %w", err)
			}
			rejected = ack.Rejected
			sigs = append(sigs, signature{Flag: ack.Rejected, Bits: math.Float64bits(ack.ProvisionalProbFake), N: ack.Scored})

		case kindClose:
			root := pl.tr.begin(spanRequest)
			s := pl.tr.begin(spanWire)
			var req server.SessionCloseRequest
			err := json.Unmarshal(r.body, &req)
			pl.tr.end(s)
			if err == nil {
				s = pl.tr.begin(spanClose)
				final, err = pl.closeSession(id, r.body)
				pl.tr.end(s)
			}
			pl.tr.end(root)
			if err != nil {
				return nil, final, fmt.Errorf("close: %w", err)
			}
			sigs = append(sigs, final.signature())
		}
	}
	return sigs, final, nil
}

// closeSession is server.handleSessionClose: the batch pipeline over the
// assembled trajectory, or the recorded early-exit rejection.
func (pl *pipeline) closeSession(id string, walPayload []byte) (verdict, error) {
	u, ack, err := pl.stream.BeginClose(id)
	if err != nil {
		return verdict{}, err
	}
	defer pl.stream.Resolve(id)
	if u == nil {
		p := ack.ProvisionalProbFake
		return verdict{pFake: &p, wifiRan: true}, pl.walAppend(walPayload[:1])
	}
	if err := u.Traj.Validate(500 * time.Millisecond); err != nil {
		return verdict{}, err
	}
	v, err := pl.verify(u)
	if err != nil {
		return v, err
	}
	return v, pl.record(u, v, walPayload)
}

// outcome is what became of one pool item.
type outcome struct {
	sigs []signature
	v    verdict
}

// walk serves every item of the pool serially, sampling the host's speed
// between items, outside every span.
func (pl *pipeline) walk(p *pool, n int) ([]outcome, error) {
	out := make([]outcome, n)
	for i := 0; i < n; i++ {
		pl.probe.sample()
		it := p.items[i]
		if it.reqs[0].kind == kindUpload {
			v, err := pl.upload(it.reqs[0])
			if err != nil {
				return nil, fmt.Errorf("item %d: %w", i, err)
			}
			out[i] = outcome{sigs: []signature{v.signature()}, v: v}
			continue
		}
		sigs, v, err := pl.session(it)
		if err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
		out[i] = outcome{sigs: sigs, v: v}
	}
	return out, nil
}

// diffOutcomes returns a description of the first place two runs over the
// same items disagree, or "" when every signature matches.
func diffOutcomes(a, b []outcome) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d items against %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].sigs) != len(b[i].sigs) {
			return fmt.Sprintf("item %d: %d responses against %d", i, len(a[i].sigs), len(b[i].sigs))
		}
		for j := range a[i].sigs {
			if a[i].sigs[j] != b[i].sigs[j] {
				return fmt.Sprintf("item %d response %d: %+v against %+v", i, j, a[i].sigs[j], b[i].sigs[j])
			}
		}
	}
	return ""
}
