package rssimap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"trajforge/internal/geo"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// tableStore is one seeded store of the bit-identity matrix: its records, the
// patch queries are drawn from, and the records it grows by between rounds.
type tableStore struct {
	width, height float64
	seed, grow    []Record
}

const tableMACs = 60

func tableRecords(rng *rand.Rand, n int, width, height float64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		m := map[string]int{}
		for a := 0; a < 3+rng.Intn(10); a++ {
			m[fmt.Sprintf("ap-%d", rng.Intn(tableMACs))] = -40 - rng.Intn(12)
		}
		recs[i] = Record{
			Pos:         geo.Point{X: rng.Float64() * width, Y: rng.Float64() * height},
			RSSI:        m,
			Contributor: fmt.Sprintf("c%d", rng.Intn(6)),
		}
	}
	return recs
}

// tableStores returns a dense corridor (references share most of their
// counting areas, so nearly every row of a point's table is read many times),
// a sparse field (most points find no or one reference) and an empty store.
func tableStores(rng *rand.Rand) []tableStore {
	return []tableStore{
		{60, 4, tableRecords(rng, 500, 60, 4), tableRecords(rng, 60, 60, 4)},
		{120, 120, tableRecords(rng, 60, 120, 120), tableRecords(rng, 10, 120, 120)},
		{30, 30, nil, tableRecords(rng, 5, 30, 30)},
	}
}

// tableScan draws a scan of 0–90 readings: shorter than some TopK and longer
// than others, naming MACs the store never heard and repeating a MAC it has
// already named (with another value) inside any TopK prefix.
func tableScan(rng *rand.Rand) wifi.Scan {
	scan := make(wifi.Scan, 0, 90)
	for n := []int{0, 1, 4, 12, 90}[rng.Intn(5)]; len(scan) < n; {
		obs := wifi.Observation{MAC: fmt.Sprintf("ap-%d", rng.Intn(tableMACs)), RSSI: -40 - rng.Intn(12)}
		switch rng.Intn(6) {
		case 0:
			obs.MAC = fmt.Sprintf("unheard-%d", rng.Intn(4))
		case 1:
			if len(scan) > 0 {
				obs.MAC = scan[rng.Intn(len(scan))].MAC
			}
		}
		scan = append(scan, obs)
	}
	return scan
}

// tableTrust is the trust axis of the matrix: no table, all-1.0, mixed, and
// every reference weighted to zero (the invSum == 0 exit).
var tableTrust = []map[string]float64{
	nil,
	{"c0": 1, "c1": 1, "c2": 1, "c3": 1, "c4": 1, "c5": 1},
	{"c0": 0.25, "c1": 0, "c2": 1, "c3": 0.6, "c5": 0.05},
	{"c0": 0, "c1": 0, "c2": 0, "c3": 0, "c4": 0, "c5": 0},
}

func sameConfidences(got, want []PointConfidence) bool {
	return slices.EqualFunc(got, want, func(g, w PointConfidence) bool {
		return g.MAC == w.MAC && g.Num == w.Num && g.Heard == w.Heard &&
			math.Float64bits(g.Phi) == math.Float64bits(w.Phi) &&
			math.Float64bits(g.Residual) == math.Float64bits(w.Residual) &&
			math.Float64bits(g.TrustNum) == math.Float64bits(w.TrustNum)
	})
}

// matchTableMismatches runs the whole matrix — stores × trust tables × θ2
// on/off × Tol 0–3 × TopK {1, 5, 9, 70}, each cell a few points, the store
// growing by Add between cells so a table sized for the smaller store is
// stale — and counts the points at which kernel and oracle differ in any bit
// of Phi, Residual or TrustNum, or in Num or Heard.
func matchTableMismatches(t *testing.T, kernel func(*Store, geo.Point, wifi.Scan, FeatureConfig) []PointConfidence) (points, mismatches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1707))
	for _, ts := range tableStores(rng) {
		for _, trust := range tableTrust {
			s := mustStore(t, DefaultConfig(), ts.seed)
			s.SetTrustWeights(trust)
			grow := ts.grow
			for _, noTheta2 := range []bool{false, true} {
				for tol := Tolerance(0); tol <= 3; tol++ {
					for _, topK := range []int{1, 5, 9, 70} {
						cfg := FeatureConfig{R: 2.5, TopK: topK, Tol: tol, DisableTheta2: noTheta2}
						o := geo.Point{X: rng.Float64() * ts.width, Y: rng.Float64() * ts.height}
						for p := 0; p < 4; p++ {
							// Walk on in small steps: consecutive points share
							// neighbours, which is what a stale row would poison.
							o.X, o.Y = o.X+rng.NormFloat64(), o.Y+rng.NormFloat64()/2
							scan := tableScan(rng)
							points++
							if !sameConfidences(kernel(s, o, scan, cfg), s.oracleConfidences(o, scan, cfg)) {
								mismatches++
							}
						}
						if len(grow) > 0 {
							s.Add(grow[:1])
							grow = grow[1:]
						}
					}
				}
			}
		}
	}
	return points, mismatches
}

// confsInto is the one-point Confidences call through the scratch pool, as
// served, reusing slot's storage.
func (s *Store) confsInto(slot *Answer, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
	dst := []Answer{*slot}
	if _, err := s.Confidences(context.Background(), dst, []trajectory.Point{{Pos: o}}, []wifi.Scan{scan}, cfg, nil); err != nil {
		panic(err)
	}
	*slot = dst[0]
	return slot.Confs
}

// kernelWith runs the per-point kernel on a scratch the test owns.
func (s *Store) kernelWith(sc *scratch, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.pointConfidencesLocked(sc, o, scan, cfg))
}

func TestMatchTableBitIdentical(t *testing.T) {
	// Through the pool, as served: the scratch moves between stores of
	// different sizes, so marks left by one store are read against another.
	var slot Answer
	points, bad := matchTableMismatches(t, func(s *Store, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
		return s.confsInto(&slot, o, scan, cfg)
	})
	if bad != 0 {
		t.Fatalf("%d of %d points differ from the probe-per-neighbour oracle", bad, points)
	}
	// The same matrix on one scratch whose base is, every sixteenth point, put
	// ten rows short of 2^32 with the marks of the points before it in place.
	// Unless base is restarted and the marks zeroed there, a mark from just
	// after the last restart (or a zero one) reads as a row of that point.
	sc, calls := new(scratch), 0
	if _, bad := matchTableMismatches(t, func(s *Store, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
		if calls++; calls%16 == 0 {
			sc.base = math.MaxUint32 - 10 - sc.rows
		}
		return s.kernelWith(sc, o, scan, cfg)
	}); bad != 0 {
		t.Fatalf("%d points differ across wraps of the table's base", bad)
	}
}

// The seeded mutation: the previous point's rows are not retired before the
// next point, so its marks still look live. The matrix has to notice.
func TestMatchTableBitIdenticalCatchesStaleTable(t *testing.T) {
	sc := new(scratch)
	points, bad := matchTableMismatches(t, func(s *Store, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
		sc.rows = 0 // resetTable now advances base by nothing
		return s.kernelWith(sc, o, scan, cfg)
	})
	if bad == 0 {
		t.Fatalf("a table that is never reset passed all %d points", points)
	}
	t.Logf("stale table caught at %d of %d points", bad, points)
}

// resetTable at the edges of base: the zero value, the last base that still
// leaves room for n rows, and the first that does not.
func TestMatchTableBaseWrap(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		base, rows, want uint32
		cleared          bool
	}{
		{0, 0, 1, true},
		{1, 7, 8, false},
		{math.MaxUint32 - n - 7, 7, math.MaxUint32 - n, false},
		{math.MaxUint32 - n - 6, 7, 1, true},
		{math.MaxUint32 - 3, 3, 1, true},
	} {
		sc := &scratch{base: tc.base, rows: tc.rows, mark: []uint32{tc.base}, bits: make([]uint64, 3)}
		sc.resetTable(n)
		if sc.base != tc.want || sc.rows != 0 || len(sc.bits) != 0 || len(sc.mark) != n {
			t.Fatalf("base %d rows %d: reset to base %d rows %d, %d bits, %d marks; want base %d",
				tc.base, tc.rows, sc.base, sc.rows, len(sc.bits), len(sc.mark), tc.want)
		}
		if cleared := sc.mark[0] == 0; cleared != tc.cleared && tc.base != 0 {
			t.Fatalf("base %d rows %d: marks cleared = %v, want %v", tc.base, tc.rows, cleared, tc.cleared)
		}
		// No mark may read as a live row of the new point, whatever it holds.
		for _, m := range sc.mark {
			if m-sc.base < n {
				t.Fatalf("base %d rows %d: stale mark %d reads as row %d", tc.base, tc.rows, m, m-sc.base)
			}
		}
	}
}

// Concurrent ingest and verification, for -race: readers run the kernel from
// the pool while the store grows under them (one-point uploads, the scan form
// of ingest), and once the writer is done the kernel still agrees with the
// oracle on the grown store.
func TestMatchTableConcurrentAddScans(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := mustStore(t, DefaultConfig(), tableRecords(rng, 200, 30, 4))
	fresh := make([]*wifi.Upload, 80)
	for i, rec := range tableRecords(rng, len(fresh), 30, 4) {
		var scan wifi.Scan
		for mac, v := range rec.RSSI {
			scan = append(scan, wifi.Observation{MAC: mac, RSSI: v})
		}
		fresh[i] = buildUpload(1, scan)
		fresh[i].Traj.Points[0].Pos, fresh[i].Contributor = rec.Pos, rec.Contributor
	}
	cfg := FeatureConfig{R: 2.5, TopK: 9, Tol: 1}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := range fresh {
			s.AddUploads(fresh[i : i+1])
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			lr := rand.New(rand.NewSource(seed))
			var slot Answer
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := geo.Point{X: lr.Float64() * 30, Y: lr.Float64() * 4}
				for _, pc := range s.confsInto(&slot, o, tableScan(lr), cfg) {
					if pc.Phi < 0 || pc.Phi > 1 {
						t.Errorf("phi = %v out of range", pc.Phi)
						return
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()
	var slot Answer
	for p := 0; p < 50; p++ {
		o := geo.Point{X: rng.Float64() * 30, Y: rng.Float64() * 4}
		scan := tableScan(rng)
		if !sameConfidences(s.confsInto(&slot, o, scan, cfg), s.oracleConfidences(o, scan, cfg)) {
			t.Fatalf("point %d differs from the oracle after concurrent growth", p)
		}
	}
}

// RSSI is compared in int. A reported value outside int16 used to be
// truncated onto the stored range (65 486 "equalled" a stored −50), and the
// int16 difference to a stored −32 768 could come out as −32 768, whose
// absolute value is itself and sits inside every tolerance.
func TestRSSIComparedInInt(t *testing.T) {
	o := geo.Point{X: 1, Y: 1}
	for _, tc := range []struct {
		name             string
		stored, reported int
		tol              Tolerance
	}{
		{"reported value truncates onto the stored one", -50, -50 + 1<<16, 0},
		{"difference to a stored -32768 wraps to -32768", math.MinInt16, 0, 0},
		{"at any tolerance", math.MinInt16, 0, 3},
	} {
		s := mustStore(t, DefaultConfig(), []Record{
			{Pos: o, RSSI: map[string]int{"a": tc.stored}},
			{Pos: geo.Point{X: 1.5, Y: 1}, RSSI: map[string]int{"a": tc.stored}},
		})
		if got := s.RPDTol(0, "a", tc.stored, tc.tol); got != 1 {
			t.Fatalf("%s: RPD of the stored value itself = %v, want 1", tc.name, got)
		}
		if got := s.RPDTol(0, "a", tc.reported, tc.tol); got != 0 {
			t.Errorf("%s: RPDTol = %v, want 0", tc.name, got)
		}
		if phi, num := s.ConfidenceTol(o, "a", tc.reported, 2.5, tc.tol); phi != 0 || num != 2 {
			t.Errorf("%s: ConfidenceTol = (%v, %d), want (0, 2)", tc.name, phi, num)
		}
		scan := wifi.Scan{{MAC: "a", RSSI: tc.reported}}
		cfg := FeatureConfig{R: 2.5, TopK: 1, Tol: tc.tol}
		if pc := s.confsInto(new(Answer), o, scan, cfg)[0]; pc.Phi != 0 || pc.Heard != 2 {
			t.Errorf("%s: Confidences = %+v, want Phi 0 over 2 hearing references", tc.name, pc)
		}
		vec, err := s.Features(buildUpload(3, scan), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vec {
			if v != 0 {
				t.Errorf("%s: feature %d = %v, want 0", tc.name, i, v)
			}
		}
	}
}

// The steady state allocates nothing beyond Features' returned vector, a
// whole upload's Confidences call into a reused buffer allocates nothing, and
// both hold again once the table has been re-sized for a grown store.
func TestKernelAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches at random under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	s := mustStore(t, DefaultConfig(), tableRecords(rng, 400, 40, 4))
	u := buildUpload(20, nil)
	for i := range u.Traj.Points {
		u.Traj.Points[i].Pos = geo.Point{X: 2 * float64(i), Y: 2}
		u.Scans[i] = tableScan(rng)
	}
	cfg := DefaultFeatureConfig()
	buf := make([]Answer, len(u.Traj.Points))
	pin := func(when string) {
		t.Helper()
		if n := testing.AllocsPerRun(20, func() {
			if _, err := s.Features(u, cfg); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Features allocates %v times per call, want 1 (the vector)", when, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := s.Confidences(context.Background(), buf, u.Traj.Points, u.Scans, cfg, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Confidences allocates %v times per upload, want 0", when, n)
		}
	}
	pin("steady state")
	s.Add(tableRecords(rng, 40, 40, 4))
	pin("after the store grew by 10%")
}

// The table's scratch stays within what DESIGN §5 states: 4 B of marks per
// record (append's growth while the store grows: at most twice that), and one
// row of 8 B per 64 slots for each distinct neighbour of the widest point.
func TestMatchTableScratchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := mustStore(t, DefaultConfig(), tableRecords(rng, 300, 40, 4))
	sc := new(scratch)
	for _, topK := range []int{5, 70} {
		cfg := FeatureConfig{R: 2.5, TopK: topK, Tol: 1}
		words := (topK + 63) / 64
		widest := 0
		for round := 0; round < 40; round++ {
			s.Add(tableRecords(rng, 5, 40, 4))
			o := geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 4}
			scan := tableScan(rng)
			for len(scan) < topK {
				scan = append(scan, tableScan(rng)...)
			}
			s.kernelWith(sc, o, scan, cfg)
			distinct := map[int32]bool{}
			for _, h := range s.ReferencePoints(o, cfg.R) {
				for _, n := range s.neighbors[h] {
					distinct[n] = true
				}
			}
			if int(sc.rows) != len(distinct) || len(sc.bits) != len(distinct)*words {
				t.Fatalf("TopK %d: %d rows, %d words for %d distinct neighbours", topK, sc.rows, len(sc.bits), len(distinct))
			}
			widest = max(widest, len(distinct))
		}
		if len(sc.mark) != s.Len() || cap(sc.mark) > 2*s.Len() {
			t.Fatalf("TopK %d: %d marks (cap %d) for %d records", topK, len(sc.mark), cap(sc.mark), s.Len())
		}
		if cap(sc.bits) > 2*widest*words {
			t.Fatalf("TopK %d: table holds %d words, widest point needs %d", topK, cap(sc.bits), widest*words)
		}
	}
}
