package trajforge

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`):
//
//	BenchmarkTable1  — classifier performance against naive attacks
//	BenchmarkFig3    — C&W iteration/time/DTW curves
//	BenchmarkMinD    — replay-threshold calibration
//	BenchmarkTable2  — detection rates against adversarial attacks
//	BenchmarkRCal    — GPS-error calibration (R = 6σ)
//	BenchmarkTable3  — per-area AP statistics
//	BenchmarkFig4/5/6 — accuracy vs radius / reference density / AP density
//	BenchmarkTable4  — final WiFi-detector performance
//
// plus the DESIGN.md §5 ablations (soft-DTW attack, θ2 weight, Num_mac
// feature, Sakoe-Chiba band) and micro-benchmarks of the hot kernels. The
// experiment benches use reduced scales; cmd/experiments -scale paper is
// the full harness whose output EXPERIMENTS.md records.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trajforge/internal/attack"
	"trajforge/internal/dataset"
	"trajforge/internal/detect"
	"trajforge/internal/dtw"
	"trajforge/internal/experiments"
	"trajforge/internal/geo"
	"trajforge/internal/loadgen"
	"trajforge/internal/rssimap"
	"trajforge/internal/stream"
	"trajforge/internal/trajectory"
	"trajforge/internal/wal"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// benchScale keeps each experiment bench in the seconds range.
func benchScale() experiments.Scale {
	s := experiments.TestScale()
	s.MotionTrips = 40
	s.MotionPoints = 45
	s.Epochs = 15
	s.Restarts = 1
	s.AttackIterations = 300
	s.AttackEvalCount = 4
	s.MinDRepeats = 8
	s.AreaScale = 0.05
	s.TrainUploads = 20
	s.TestUploads = 12
	s.SweepDetRound = 20
	return s
}

var (
	_benchMotionOnce sync.Once
	_benchMotionLab  *experiments.MotionLab
	_benchWiFiOnce   sync.Once
	_benchWiFiLab    *experiments.WiFiLab
	_benchMinDOnce   sync.Once
	_benchMinD       *experiments.MinDResult
)

func benchMotionLab(b *testing.B) *experiments.MotionLab {
	b.Helper()
	_benchMotionOnce.Do(func() {
		lab, err := experiments.NewMotionLab(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		_benchMotionLab = lab
	})
	if _benchMotionLab == nil {
		b.Skip("motion lab failed to build in an earlier benchmark")
	}
	return _benchMotionLab
}

func benchMinD(b *testing.B) *experiments.MinDResult {
	b.Helper()
	_benchMinDOnce.Do(func() {
		res, err := experiments.MinD(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		_benchMinD = res
	})
	if _benchMinD == nil {
		b.Skip("MinD calibration failed earlier")
	}
	return _benchMinD
}

func benchWiFiLab(b *testing.B) *experiments.WiFiLab {
	b.Helper()
	_benchWiFiOnce.Do(func() {
		lab, err := experiments.NewWiFiLab(benchScale(), benchMinD(b))
		if err != nil {
			b.Fatal(err)
		}
		_benchWiFiLab = lab
	})
	if _benchWiFiLab == nil {
		b.Skip("WiFi lab failed to build in an earlier benchmark")
	}
	return _benchWiFiLab
}

// BenchmarkTable1 regenerates Table I (classifiers vs naive attacks).
func BenchmarkTable1(b *testing.B) {
	lab := benchMotionLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(lab)
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig3 regenerates the Fig. 3 iteration sweep.
func BenchmarkFig3(b *testing.B) {
	lab := benchMotionLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinD regenerates the MinD calibration.
func BenchmarkMinD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MinD(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (C&W attacks vs all detectors).
func BenchmarkTable2(b *testing.B) {
	lab := benchMotionLab(b)
	mind := benchMinD(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(lab, mind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCal regenerates the R = 6σ calibration.
func BenchmarkRCal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RCal(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the Table III AP statistics.
func BenchmarkTable3(b *testing.B) {
	lab := benchWiFiLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := experiments.Table3(lab); len(res.Rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig4 regenerates a two-point Fig. 4 radius sweep.
func BenchmarkFig4(b *testing.B) {
	lab := benchWiFiLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(lab, []float64{1.0, 2.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates a two-point Fig. 5 density sweep.
func BenchmarkFig5(b *testing.B) {
	lab := benchWiFiLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(lab, []float64{0.3, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates a two-point Fig. 6 AP-density sweep.
func BenchmarkFig6(b *testing.B) {
	lab := benchWiFiLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(lab, []float64{0.3, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates Table IV (final detector performance).
func BenchmarkTable4(b *testing.B) {
	lab := benchWiFiLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// attackAblation runs one navigation attack with the given config tweak.
func attackAblation(b *testing.B, tweak func(*attack.CWConfig)) {
	lab := benchMotionLab(b)
	forger := attack.NewForger(lab.C.Model, lab.C.Kind)
	cfg := attack.DefaultCWConfig(attack.ScenarioNavigation)
	cfg.Iterations = 200
	cfg.Seed = 99
	tweak(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forger.Forge(lab.TrainNav[0], cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAttackHardDTW is the default hard-DTW attack loss.
func BenchmarkAblationAttackHardDTW(b *testing.B) {
	attackAblation(b, func(cfg *attack.CWConfig) {})
}

// BenchmarkAblationAttackSoftDTW swaps in the exact soft-DTW gradient.
func BenchmarkAblationAttackSoftDTW(b *testing.B) {
	attackAblation(b, func(cfg *attack.CWConfig) {
		cfg.UseSoftDTW = true
		cfg.SoftGamma = 1.0
	})
}

// BenchmarkAblationAttackPerPoint disables the smooth control basis.
func BenchmarkAblationAttackPerPoint(b *testing.B) {
	attackAblation(b, func(cfg *attack.CWConfig) { cfg.ControlEvery = -1 })
}

// featureAblation measures WiFi-detector accuracy with a feature-config
// tweak; reported as accuracy in a custom metric.
func featureAblation(b *testing.B, tweak func(*rssimap.FeatureConfig)) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0] // walking area
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(al.StoreUploads))
	if err != nil {
		b.Fatal(err)
	}
	fcfg := rssimap.DefaultFeatureConfig()
	tweak(&fcfg)
	b.ResetTimer()
	var lastAcc float64
	for i := 0; i < b.N; i++ {
		det, err := trainWiFiWith(store, al, fcfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		conf, err := det.EvaluateWiFi(al.TestReal, al.TestFake)
		if err != nil {
			b.Fatal(err)
		}
		lastAcc = conf.Accuracy()
	}
	b.ReportMetric(lastAcc, "accuracy")
}

func trainWiFiWith(store *rssimap.Store, al *experiments.AreaLab,
	fcfg rssimap.FeatureConfig, seed int64) (*WiFiDetector, error) {
	return detect.TrainWiFiDetector(store, al.TrainReal, al.TrainFake, fcfg,
		xgb.Config{Rounds: 40, MaxDepth: 4, LearningRate: 0.2, Seed: seed})
}

// BenchmarkAblationFullFeatures is the paper's full feature vector.
func BenchmarkAblationFullFeatures(b *testing.B) {
	featureAblation(b, func(cfg *rssimap.FeatureConfig) {})
}

// BenchmarkAblationNoTheta2 drops the density-reliability weight θ2.
func BenchmarkAblationNoTheta2(b *testing.B) {
	featureAblation(b, func(cfg *rssimap.FeatureConfig) { cfg.DisableTheta2 = true })
}

// BenchmarkAblationNoNum drops the Num_mac reference-count features.
func BenchmarkAblationNoNum(b *testing.B) {
	featureAblation(b, func(cfg *rssimap.FeatureConfig) { cfg.IncludeNum = false })
}

// BenchmarkAblationNoSummary drops the trajectory-level aggregates.
func BenchmarkAblationNoSummary(b *testing.B) {
	featureAblation(b, func(cfg *rssimap.FeatureConfig) { cfg.IncludeSummary = false })
}

// --- Micro-benchmarks of the hot kernels ---

func benchTrajectories(n, points int) []*Trajectory {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2022, 7, 1, 9, 0, 0, 0, time.UTC)
	out := make([]*Trajectory, n)
	for i := range out {
		pos := make([]geo.Point, points)
		for j := 1; j < points; j++ {
			pos[j] = geo.Point{
				X: pos[j-1].X + 1.2 + rng.NormFloat64()*0.3,
				Y: pos[j-1].Y + rng.NormFloat64()*0.5,
			}
		}
		out[i] = trajectory.New(pos, start, time.Second)
	}
	return out
}

// BenchmarkDTWDistance measures the core DTW kernel on 60-point tracks.
func BenchmarkDTWDistance(b *testing.B) {
	ts := benchTrajectories(2, 60)
	a, c := ts[0].Positions(), ts[1].Positions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtw.Dist(a, c)
	}
}

// BenchmarkDTWBanded measures the Sakoe-Chiba banded variant.
func BenchmarkDTWBanded(b *testing.B) {
	ts := benchTrajectories(2, 60)
	a, c := ts[0].Positions(), ts[1].Positions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtw.DistBanded(a, c, 8)
	}
}

// BenchmarkDTWGradient measures the attack's DTW subgradient.
func BenchmarkDTWGradient(b *testing.B) {
	ts := benchTrajectories(2, 60)
	a, c := ts[0].Positions(), ts[1].Positions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dtw.GradB(a, c, dtw.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotionSummary measures the XGBoost feature extraction.
func BenchmarkMotionSummary(b *testing.B) {
	tr := benchTrajectories(1, 60)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trajectory.Summarize(tr)
	}
}

// BenchmarkStoreConfidence measures one Eq. 7 confidence query against a
// populated store.
func BenchmarkStoreConfidence(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(al.StoreUploads))
	if err != nil {
		b.Fatal(err)
	}
	u := al.TestReal[0]
	pt := u.Traj.Points[10]
	scan := u.Scans[10]
	if len(scan) == 0 {
		b.Skip("no scan data at probe point")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Confidence(pt.Pos, scan[0].MAC, scan[0].RSSI, 2.5)
	}
}

// BenchmarkStoreFeatures measures the full Eq. 8 feature extraction for one
// 30-point upload.
func BenchmarkStoreFeatures(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(al.StoreUploads))
	if err != nil {
		b.Fatal(err)
	}
	fcfg := rssimap.DefaultFeatureConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Features(al.TestReal[i%len(al.TestReal)], fcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreFeaturesSerial extracts Eq. 8 vectors for the whole test set
// one upload at a time — the baseline BenchmarkStoreFeaturesBatch is measured
// against (same workload, same store).
func BenchmarkStoreFeaturesSerial(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(al.StoreUploads))
	if err != nil {
		b.Fatal(err)
	}
	fcfg := rssimap.DefaultFeatureConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range al.TestReal {
			if _, err := store.Features(u, fcfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStoreFeaturesBatch runs the identical workload through the
// worker-fanned rssimap.BatchFeatures path; compare ns/op against
// BenchmarkStoreFeaturesSerial on a multi-core machine.
func BenchmarkStoreFeaturesBatch(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(al.StoreUploads))
	if err != nil {
		b.Fatal(err)
	}
	fcfg := rssimap.DefaultFeatureConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rssimap.BatchFeatures(store, al.TestReal, fcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateWiFi measures a full detector evaluation pass (batch
// feature extraction + parallel scoring) over the area's test set.
func BenchmarkEvaluateWiFi(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(al.StoreUploads))
	if err != nil {
		b.Fatal(err)
	}
	det, err := trainWiFiWith(store, al, rssimap.DefaultFeatureConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.EvaluateWiFi(al.TestReal, al.TestFake); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionClose measures the WiFi stage of a streaming close over a
// 20-point session whose points were all scored at append: "fresh" hands the
// close to the store the appends ran against, so every answer is reused;
// "stale" hands it to a twin store over the same records, whose generation
// no append-time mark carries, so every point runs the kernel again — the
// cost of a close before reuse, bit for bit the same vector.
func BenchmarkSessionClose(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	recs := dataset.Records(al.StoreUploads)
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		b.Fatal(err)
	}
	twin, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
	if err != nil {
		b.Fatal(err)
	}
	fcfg := rssimap.DefaultFeatureConfig()
	det, err := trainWiFiWith(store, al, fcfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, err := stream.NewManager(stream.Config{Detector: det, DisableEarlyExit: true})
	if err != nil {
		b.Fatal(err)
	}
	u := al.TestReal[0]
	n := min(20, u.Traj.Len())
	id, err := m.Open("", u.Traj.Mode)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := m.AppendChunk(id, 0, u.Traj.Points[:n], u.Scans[:n]); err != nil {
		b.Fatal(err)
	}
	closing, _, err := m.BeginClose(id)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		back rssimap.Backend
	}{{"fresh", store}, {"stale", twin}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.CloseFeatures(context.Background(), id, closing, bc.back, fcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForgeUpload measures the bulk RSSI-replay forgery.
func BenchmarkForgeUpload(b *testing.B) {
	lab := benchWiFiLab(b)
	al := lab.Areas[0]
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ForgeUpload(rng, al.Hist[i%len(al.Hist)], 1.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoResiduals drops the residual-magnitude features.
func BenchmarkAblationNoResiduals(b *testing.B) {
	featureAblation(b, func(cfg *rssimap.FeatureConfig) { cfg.IncludeResiduals = false })
}

// --- Storage backends (last list of make bench-micro) ---

// benchStoreRecords builds a deterministic crowdsourced corpus spread over
// a width×height area.
func benchStoreRecords(rng *rand.Rand, n int, width, height float64) []rssimap.Record {
	recs := make([]rssimap.Record, n)
	for i := range recs {
		m := make(map[string]int)
		for j := 0; j < 3+rng.Intn(4); j++ {
			m[fmt.Sprintf("02:4e:00:00:00:%02x", rng.Intn(48))] = -40 - rng.Intn(50)
		}
		recs[i] = rssimap.Record{
			Pos:  geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height},
			RSSI: m,
		}
	}
	return recs
}

// BenchmarkStoreAddConcurrent measures ingestion under contention: every
// goroutine hammers Add on one shared global store, whose batches all
// funnel through its single write lock.
func BenchmarkStoreAddConcurrent(b *testing.B) {
	const width, height = 400, 400
	rng := rand.New(rand.NewSource(41))
	batches := make([][]rssimap.Record, 256)
	for i := range batches {
		batches[i] = benchStoreRecords(rng, 50, width, height)
	}
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			store.Add(batches[int(i)%len(batches)])
		}
	})
}

// BenchmarkStoreAddUploads measures the crowdsourcing write path of the
// global store: a store seeded with half of a seeded city's trips ingests the
// other half one accepted upload at a time, as the server does. Building the
// city and the seeded store stays outside ns/record.
func BenchmarkStoreAddUploads(b *testing.B) {
	city, err := loadgen.BuildCity(loadgen.CityOptions{Seed: 7, Hist: 600, Points: 30})
	if err != nil {
		b.Fatal(err)
	}
	seed, live := rssimap.UploadRecords(city.Hist[:300]), city.Hist[300:]
	records := len(rssimap.UploadScans(live))
	b.ReportAllocs()
	b.ResetTimer()
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		store, err := rssimap.NewStore(rssimap.DefaultConfig(), seed)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for _, u := range live {
			store.AddUploads([]*wifi.Upload{u})
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*records), "ns/record")
}

// BenchmarkWALAppend measures one group-committed frame append (1 KiB
// payload, fsync batched on the default-style 2ms interval).
func BenchmarkWALAppend(b *testing.B) {
	log, err := wal.Open(filepath.Join(b.TempDir(), "bench.wal"),
		wal.Options{SyncInterval: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rng := rand.New(rand.NewSource(47))
	payload := make([]byte, 1024)
	rng.Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures a full recovery scan of a 4096-frame log
// (512 B payloads), CRC checks included.
func BenchmarkWALReplay(b *testing.B) {
	log, err := wal.Open(filepath.Join(b.TempDir(), "bench.wal"), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rng := rand.New(rand.NewSource(53))
	payload := make([]byte, 512)
	rng.Read(payload)
	const frames = 4096
	for i := 0; i < frames; i++ {
		if err := log.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(frames * int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		err := log.Replay(func(typ byte, p []byte) error {
			n++
			return nil
		})
		if err != nil || n != frames {
			b.Fatalf("replayed %d frames, err %v", n, err)
		}
	}
}
