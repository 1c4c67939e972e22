package rssimap

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"trajforge/internal/geo"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// randUpload builds an n-point upload wandering through the patch, with a
// distinct random scan at every point.
func randUpload(rng *rand.Rand, n int) *wifi.Upload {
	pos := make([]geo.Point, n)
	scans := make([]wifi.Scan, n)
	x, y := rng.Float64()*25, rng.Float64()*25
	for i := range pos {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		pos[i] = geo.Point{X: x, Y: y}
		k := rng.Intn(7)
		for a := 0; a < k; a++ {
			scans[i] = append(scans[i], wifi.Observation{
				MAC:  fmt.Sprintf("ap-%d", rng.Intn(8)),
				RSSI: -40 - rng.Intn(50),
			})
		}
	}
	return &wifi.Upload{Traj: trajectory.New(pos, _t0, 2*time.Second), Scans: scans}
}

// The θ2 cache must be invalidated by Add for exactly the records whose
// counting area the new records enter: after any sequence of Adds, every
// cached weight must equal the one a from-scratch store computes.
func TestTheta2CacheInvalidatedByAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	all := make([]Record, 60)
	for i := range all {
		all[i] = Record{
			Pos:  geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25},
			RSSI: map[string]int{fmt.Sprintf("ap-%d", rng.Intn(5)): -50 - rng.Intn(30)},
		}
	}
	incr := mustStore(t, DefaultConfig(), all[:30])
	// Mutate in several waves, including one that lands directly on top of
	// existing records (maximum cache churn).
	incr.Add(all[30:45])
	incr.Add(all[45:])
	onTop := []Record{
		{Pos: all[0].Pos, RSSI: map[string]int{"ap-0": -55}},
		{Pos: all[10].Pos, RSSI: map[string]int{"ap-1": -60}},
	}
	incr.Add(onTop)

	fresh := mustStore(t, DefaultConfig(), append(append([]Record(nil), all...), onTop...))
	if incr.Len() != fresh.Len() {
		t.Fatalf("len %d != %d", incr.Len(), fresh.Len())
	}
	for h := 0; h < incr.Len(); h++ {
		if got, want := incr.Theta2(int32(h)), fresh.Theta2(int32(h)); got != want {
			t.Fatalf("theta2[%d] = %v (cached) != %v (from scratch)", h, got, want)
		}
	}
	// The cached weights feed Eq. 7: confidences must agree bit-for-bit too.
	for trial := 0; trial < 25; trial++ {
		o := geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}
		mac := fmt.Sprintf("ap-%d", rng.Intn(5))
		rssi := -50 - rng.Intn(30)
		p1, n1 := incr.ConfidenceTol(o, mac, rssi, 2.5, 1)
		p2, n2 := fresh.ConfidenceTol(o, mac, rssi, 2.5, 1)
		if p1 != p2 || n1 != n2 {
			t.Fatalf("confidence (%v, %d) != (%v, %d) at %v", p1, n1, p2, n2, o)
		}
	}
}

// BatchFeatures must produce bit-identical vectors to the serial Features
// path — the parallel fan-out may not change a single ULP.
func TestFeaturesBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randStore(t, rng)
	uploads := make([]*wifi.Upload, 12)
	for i := range uploads {
		uploads[i] = randUpload(rng, 5+rng.Intn(20))
	}
	for _, cfg := range []FeatureConfig{
		DefaultFeatureConfig(),
		{R: 2.5, TopK: 3},
		{R: 1.5, TopK: 5, Tol: 2, IncludeNum: true, IncludeSummary: true},
		{R: 2.5, TopK: 5, Tol: 1, IncludeResiduals: true, IncludeSummary: true, DisableTheta2: true},
	} {
		batch, err := BatchFeatures(s, uploads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(uploads) {
			t.Fatalf("batch returned %d vectors for %d uploads", len(batch), len(uploads))
		}
		for i, u := range uploads {
			serial, err := s.Features(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(batch[i]) {
				t.Fatalf("cfg %+v upload %d: len %d != %d", cfg, i, len(serial), len(batch[i]))
			}
			for j := range serial {
				if serial[j] != batch[i][j] {
					t.Fatalf("cfg %+v upload %d feature %d: %v (serial) != %v (batch)",
						cfg, i, j, serial[j], batch[i][j])
				}
			}
		}
	}
}

// BatchFeatures surfaces the error of the lowest-index bad upload.
func TestFeaturesBatchValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randStore(t, rng)
	good := randUpload(rng, 8)
	bad := &wifi.Upload{Traj: good.Traj, Scans: good.Scans[:2]}
	if _, err := BatchFeatures(s, []*wifi.Upload{good, bad}, DefaultFeatureConfig()); err == nil {
		t.Fatal("mismatched upload must error")
	}
	if _, err := BatchFeatures(s, []*wifi.Upload{good}, FeatureConfig{R: -1, TopK: 3}); err == nil {
		t.Fatal("bad radius must error")
	}
	if out, err := BatchFeatures(s, nil, DefaultFeatureConfig()); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// A live provider keeps crowdsourcing while verifying: one writer ingests
// uploads through Add while reader goroutines run the confidence and batch
// feature paths. Run under -race, this exercises the lock discipline of the
// scratch/cache hot path.
func TestConcurrentAddAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := randStore(t, rng)
	uploads := make([]*wifi.Upload, 6)
	for i := range uploads {
		uploads[i] = randUpload(rng, 10)
	}
	fresh := make([][]Record, 20)
	for w := range fresh {
		fresh[w] = []Record{{
			Pos:  geo.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30},
			RSSI: map[string]int{fmt.Sprintf("ap-%d", rng.Intn(8)): -40 - rng.Intn(50)},
		}}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: keeps ingesting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, recs := range fresh {
			s.Add(recs)
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	// Readers: per-point confidences and batch feature extraction.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lr := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := geo.Point{X: lr.Float64() * 30, Y: lr.Float64() * 30}
				phi, _ := s.ConfidenceTol(o, fmt.Sprintf("ap-%d", lr.Intn(8)), -60, 2.5, 1)
				if phi < 0 || phi > 1 {
					t.Errorf("phi = %v out of range", phi)
					return
				}
				if _, err := BatchFeatures(s, uploads, DefaultFeatureConfig()); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// A prior answer's slice belongs to its owner (a session's arena): the call
// never writes into it, and a vector that reused it does not leave it in the
// pooled slots a later query computes into.
func TestPriorAnswersNeverWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := randStore(t, rng)
	twin := mustStore(t, DefaultConfig(), s.Records()) // same records, another generation
	cfg := DefaultFeatureConfig()
	u := randUpload(rng, 12)
	prior := make([]Answer, u.Traj.Len())
	if _, err := s.Confidences(context.Background(), prior, u.Traj.Points, u.Scans, cfg, nil); err != nil {
		t.Fatal(err)
	}
	want := make([][]PointConfidence, len(prior))
	for i, a := range prior {
		want[i] = slices.Clone(a.Confs)
	}
	for round := 0; round < 4; round++ {
		if _, computed, err := ReuseFeatures(context.Background(), s, u, cfg, prior); err != nil || computed != 0 {
			t.Fatalf("round %d: reuse computed %d points (%v), want 0", round, computed, err)
		}
		if _, computed, err := ReuseFeatures(context.Background(), twin, u, cfg, prior); err != nil || computed != len(prior) {
			t.Fatalf("round %d: twin computed %d points (%v), want %d", round, computed, err, len(prior))
		}
		if _, err := Features(context.Background(), s, randUpload(rng, 12), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range prior {
		if !sameConfidences(a.Confs, want[i]) {
			t.Fatalf("prior answer %d was written: %+v, was %+v", i, a.Confs, want[i])
		}
	}
}
