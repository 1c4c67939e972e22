// Package rssimap implements the provider-side half of the paper's defense
// (Sec. III): a crowdsourced store of historical (position, WiFi scan)
// records with a grid spatial index, the RSSI probability distribution
// (RPD) around each historical point (Eq. 4), the distance weight θ1
// (Eq. 5), the density-reliability weight θ2 (Eq. 6), the per-RSSI
// confidence Φ (Eq. 7), and the fixed-length trajectory feature vector fed
// to the XGBoost detector (Eq. 8).
//
// The store is built for the scan-heavy access pattern of verification:
// MAC addresses are interned to integer IDs at build time, per-record
// readings are kept as ID-sorted arrays (binary search instead of string
// hashing in the RPD inner loop), reference-point queries use a uniform
// grid, and every record's RPD counting area is precomputed and maintained
// incrementally by Add.
package rssimap

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"trajforge/internal/geo"
	"trajforge/internal/wifi"
)

// Record is one crowdsourced historical point: where a user reported being
// and what their phone heard there. Contributor is the uploader the point
// came from (ingestion provenance); empty is the legacy anonymous
// contributor.
type Record struct {
	Pos         geo.Point
	RSSI        map[string]int // MAC -> dBm
	Contributor string
}

// RecordFromScan converts a scan into an (anonymous) record.
func RecordFromScan(pos geo.Point, s wifi.Scan) Record {
	m := make(map[string]int, len(s))
	for _, o := range s {
		m[o.MAC] = o.RSSI
	}
	return Record{Pos: pos, RSSI: m}
}

// Config holds the defense's spatial parameters.
type Config struct {
	// R is the RPD counting radius (the paper calibrates R = 6σ = 3 m).
	R float64
	// DensityBase is the paper's 1/t = 0.9 in θ2 = 1 - (1/t)^ε.
	DensityBase float64
}

// DefaultConfig returns the paper's calibrated parameters.
func DefaultConfig() Config {
	return Config{R: 3.0, DensityBase: 0.9}
}

// reading is one (interned MAC, RSSI) pair.
type reading struct {
	mac  int32
	rssi int16
}

// storedRecord is the internal, query-optimised form of a Record.
type storedRecord struct {
	pos      geo.Point
	contrib  int32     // interned contributor ID
	readings []reading // sorted by mac
}

// rssiOf returns the record's reading of mac via binary search.
func (r *storedRecord) rssiOf(mac int32) (int16, bool) {
	lo, hi := 0, len(r.readings)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.readings[mid].mac < mac {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.readings) && r.readings[lo].mac == mac {
		return r.readings[lo].rssi, true
	}
	return 0, false
}

// Store is the provider's historical RSSI database. It is safe for
// concurrent use: queries take a read lock, Add takes the write lock, so a
// live verification service can keep crowdsourcing while verifying.
type Store struct {
	cfg Config

	mu      sync.RWMutex
	records []storedRecord
	macIDs  map[string]int32
	// macNames is the cached reverse of macIDs (index = interned ID). It is
	// extended whenever macID interns a new MAC, so Record never rebuilds the
	// table from the map.
	macNames []string

	// contribIDs/contribNames intern contributor identities exactly like
	// MACs, so per-record provenance costs 4 bytes.
	contribIDs   map[string]int32
	contribNames []string

	// gen is the store's generation (NewGeneration): taken at build and
	// again on every trust table push, it is the half of a Mark that proves
	// an answer came from this store under the current weights.
	gen *Generation

	// trust, when non-nil, down-weights low-trust contributors in the θ2
	// density term: the counting-area population ε of Eq. 6 becomes the sum
	// of contributor trust weights over the area instead of its cardinality.
	// wByID caches the weight per interned contributor (unknown contributors
	// default to 1.0 — fully trusted, matching the unweighted store), and
	// wsum[i] caches that trusted mass over neighbors[i], summed in
	// ascending record-index order so grown and rebuilt stores accumulate
	// bit-identically. With every weight exactly 1.0 the sum equals
	// float64(len(neighbors[i])) exactly (integer-valued float64 additions),
	// so an all-trusted store answers bit-identically to the unweighted one.
	trust map[string]float64
	wByID []float64
	wsum  []float64

	cell float64
	grid map[[2]int][]int32

	// neighbors[i] caches the indices of records within R of record i
	// (including i itself) — the RPD counting area C_H(R).
	neighbors [][]int32
	// areaBuf is indexLocked's gather-and-sort buffer (write lock held).
	areaBuf []int32

	// th2[i] caches θ2 of record i (Eq. 6). It depends only on
	// len(neighbors[i]), so Add invalidates it incrementally for exactly the
	// records whose counting area a new record enters — the math.Pow leaves
	// the per-point confidence hot loop entirely.
	th2 []float64
	// th2ByCount[k] is θ2 of a counting area of k records while no trust
	// table is installed (see theta2Locked); it grows under the write lock.
	th2ByCount []float64
}

// NewStore builds a store over the given records.
func NewStore(cfg Config, records []Record) (*Store, error) {
	if cfg.R <= 0 {
		return nil, fmt.Errorf("rssimap: counting radius R=%g must be positive", cfg.R)
	}
	if cfg.DensityBase <= 0 || cfg.DensityBase >= 1 {
		return nil, fmt.Errorf("rssimap: density base %g must be in (0, 1)", cfg.DensityBase)
	}
	s := &Store{
		cfg:        cfg,
		macIDs:     make(map[string]int32),
		contribIDs: make(map[string]int32),
		cell:       cfg.R,
		grid:       make(map[[2]int][]int32),
		gen:        NewGeneration(),
	}
	s.records = make([]storedRecord, 0, len(records))
	for _, rec := range records {
		s.appendLocked(rec.Pos, s.contribID(rec.Contributor), s.mapReadings(rec.RSSI))
	}
	// Precompute RPD counting areas and the θ2 cache. Counting areas are
	// kept in ascending record-index order — Add appends only ever-larger
	// indices, so the invariant is cheap to maintain and makes the trusted
	// mass accumulation order canonical.
	s.neighbors = make([][]int32, len(s.records))
	s.th2 = make([]float64, len(s.records))
	for i := range s.records {
		area := s.withinRadius(s.records[i].pos, cfg.R)
		slices.Sort(area)
		s.neighbors[i] = area
		s.th2[i] = s.theta2Locked(int32(i))
	}
	return s, nil
}

// Len returns the number of historical records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Record returns the i-th record in the public (map) form.
func (s *Store) Record(i int) Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.records[i]
	// Reverse the interning for the public view.
	names := s.macNamesLocked()
	m := make(map[string]int, len(sr.readings))
	for _, rd := range sr.readings {
		m[names[rd.mac]] = int(rd.rssi)
	}
	return Record{Pos: sr.pos, RSSI: m, Contributor: s.contribNames[sr.contrib]}
}

func (s *Store) macNamesLocked() []string { return s.macNames }

// Records returns every historical record in insertion order, in the public
// (map) form — the serialization surface snapshots use. The returned slice
// and maps are fresh copies.
func (s *Store) Records() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := s.macNamesLocked()
	out := make([]Record, len(s.records))
	for i, sr := range s.records {
		m := make(map[string]int, len(sr.readings))
		for _, rd := range sr.readings {
			m[names[rd.mac]] = int(rd.rssi)
		}
		out[i] = Record{Pos: sr.pos, RSSI: m, Contributor: s.contribNames[sr.contrib]}
	}
	return out
}

func (s *Store) cellOf(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / s.cell)), int(math.Floor(p.Y / s.cell))}
}

// withinRadius returns the indices of records within radius of p. Callers
// must hold at least the read lock.
func (s *Store) withinRadius(p geo.Point, radius float64) []int32 {
	return s.withinRadiusInto(nil, p, radius)
}

// withinRadiusInto appends the indices of records within radius of p to
// out[:0] and returns it — the allocation-free form for callers that hold a
// reusable buffer. Callers must hold at least the read lock. Index order is
// deterministic (grid cells in row-major reach order, append order within a
// cell), so downstream float accumulation is reproducible.
func (s *Store) withinRadiusInto(out []int32, p geo.Point, radius float64) []int32 {
	out = out[:0]
	reach := int(math.Ceil(radius / s.cell))
	c := s.cellOf(p)
	r2 := radius * radius
	for dx := -reach; dx <= reach; dx++ {
		for dy := -reach; dy <= reach; dy++ {
			for _, idx := range s.grid[[2]int{c[0] + dx, c[1] + dy}] {
				if geo.Dist2(s.records[idx].pos, p) <= r2 {
					out = append(out, idx)
				}
			}
		}
	}
	return out
}

// ReferencePoints returns the indices of historical records within radius r
// of position O — the paper's reference points in C_O(r).
func (s *Store) ReferencePoints(o geo.Point, r float64) []int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.withinRadius(o, r)
}

// RPD evaluates Eq. 4: the fraction of records in the counting area of
// reference point h whose reported RSSI for mac equals x. Records that did
// not hear mac at all count toward the denominator — an AP that is usually
// silent here makes any reported value for it suspicious.
func (s *Store) RPD(h int32, mac string, x int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.macIDs[mac]
	if !ok {
		return 0
	}
	return s.rpdLocked(h, id, x, 0)
}

// rpdLocked evaluates the (tolerance-widened) RPD for an interned MAC.
// Callers must hold the read lock.
func (s *Store) rpdLocked(h int32, mac int32, x int, tol Tolerance) float64 {
	area := s.neighbors[h]
	if len(area) == 0 {
		return 0
	}
	var hits int
	for _, idx := range area {
		if v, ok := s.records[idx].rssiOf(mac); ok && withinTol(v, x, tol) {
			hits++
		}
	}
	return float64(hits) / float64(len(area))
}

// Density returns ε for reference point h: counting-area population per
// square metre (Eq. 6).
func (s *Store) Density(h int32) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.densityLocked(h)
}

func (s *Store) densityLocked(h int32) float64 {
	return s.densityOf(s.trustMassLocked(h))
}

// densityOf is ε of a counting area holding the given (trusted) mass.
func (s *Store) densityOf(mass float64) float64 {
	return mass / (math.Pi * s.cfg.R * s.cfg.R)
}

// trustMassLocked returns the counting-area population of record h — the
// plain cardinality for an unweighted store, or the cached sum of
// contributor trust weights when a trust table is installed.
func (s *Store) trustMassLocked(h int32) float64 {
	if s.wsum != nil {
		return s.wsum[h]
	}
	return float64(len(s.neighbors[h]))
}

// trustWeightOf returns the installed trust weight of a contributor;
// contributors absent from the table (bootstrap data, the legacy anonymous
// contributor) are fully trusted. Callers must hold the write lock.
func (s *Store) trustWeightOf(name string) float64 {
	if w, ok := s.trust[name]; ok {
		return w
	}
	return 1.0
}

// SetTrustWeights installs (or, with nil, removes) a contributor trust
// table. While installed, the θ2 density term of Eq. 6 counts each record
// in a counting area with its contributor's weight instead of 1, and the
// θ1 inverse-distance weights of Eq. 5 (and with them the residual
// reference mean) are scaled by the same per-record weight — mass uploaded
// by low-trust contributors neither inflates RPD reliability nor steers
// per-point verification at full strength. The call recomputes the
// trusted-mass and θ2 caches for every record; subsequent Adds maintain
// them incrementally. An all-1.0 (or empty) table leaves every answer
// bit-identical to the unweighted store. Every push starts a new generation,
// so no answer marked before it is reused.
func (s *Store) SetTrustWeights(weights map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen = NewGeneration()
	if weights == nil {
		s.trust, s.wByID, s.wsum = nil, nil, nil
	} else {
		s.trust = make(map[string]float64, len(weights))
		for k, v := range weights {
			s.trust[k] = v
		}
		s.wByID = make([]float64, len(s.contribNames))
		for i, name := range s.contribNames {
			s.wByID[i] = s.trustWeightOf(name)
		}
		s.wsum = make([]float64, len(s.records))
		for i := range s.records {
			var sum float64
			for _, n := range s.neighbors[i] { // ascending index order
				sum += s.wByID[s.records[n].contrib]
			}
			s.wsum[i] = sum
		}
	}
	for i := range s.records {
		s.th2[i] = s.theta2Locked(int32(i))
	}
}

// theta2OfMass evaluates Eq. 6 for a counting area holding the given
// (trusted) mass.
func (s *Store) theta2OfMass(mass float64) float64 {
	return 1 - math.Pow(s.cfg.DensityBase, s.densityOf(mass))
}

// theta2Locked evaluates Eq. 6 for reference point h: the reliability of its
// RPD. Without a trust table the mass is the counting area's cardinality, so
// the value is read from th2ByCount — theta2OfMass of that integer, computed
// once per cardinality with the same expression and so the same bits. With a
// table installed the mass is a sum of weights and the table is not
// consulted. Callers must hold the write lock (or be the constructor);
// queries read the th2 cache instead.
func (s *Store) theta2Locked(h int32) float64 {
	if s.wsum != nil {
		return s.theta2OfMass(s.wsum[h])
	}
	k := len(s.neighbors[h])
	for len(s.th2ByCount) <= k {
		s.th2ByCount = append(s.th2ByCount, s.theta2OfMass(float64(len(s.th2ByCount))))
	}
	return s.th2ByCount[k]
}

// Theta2 returns the cached Eq. 6 reliability weight of record h.
func (s *Store) Theta2(h int32) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.th2[h]
}

// Confidence evaluates Eq. 7 for one reported (mac, rssi) at position o
// using the reference points within radius r. It returns Φ and the number
// of reference points used (the paper's Num_mac feature).
func (s *Store) Confidence(o geo.Point, mac string, rssi int, r float64) (phi float64, num int) {
	return s.ConfidenceTol(o, mac, rssi, r, 0)
}

// Tolerance widens the RPD match: a reported value x matches a historical
// value v when |x - v| <= tol. The paper's exact-match Eq. 4 is tol = 0;
// integer-dBm quantisation plus measurement noise makes tol = 1-2 the
// practical choice, and the experiments expose it as an ablation.
type Tolerance int

// withinTol reports whether reported value x matches stored value v. The
// difference is taken in int, so a reported value outside int16 matches
// nothing instead of being truncated onto a stored one, and it is tested
// against the window directly: there is no absolute value for a difference of
// -32768 to overflow.
func withinTol(v int16, x int, tol Tolerance) bool {
	d := x - int(v)
	return -int(tol) <= d && d <= int(tol)
}

// RPDTol is RPD with a +/- tol dB matching window.
func (s *Store) RPDTol(h int32, mac string, x int, tol Tolerance) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.macIDs[mac]
	if !ok {
		return 0
	}
	return s.rpdLocked(h, id, x, tol)
}

// ConfidenceTol is Confidence with a matching tolerance: a one-reading scan
// through the per-point kernel, so there is one implementation of Eq. 7. The
// steady-state path is allocation-free: reference indices, θ1 weights and
// the match table live in pooled per-goroutine scratch, and θ2 comes from
// the incrementally maintained cache.
func (s *Store) ConfidenceTol(o geo.Point, mac string, rssi int, r float64, tol Tolerance) (phi float64, num int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc := getScratch()
	defer putScratch(sc)
	pc := s.pointConfidencesLocked(sc, o, wifi.Scan{{MAC: mac, RSSI: rssi}}, FeatureConfig{R: r, TopK: 1, Tol: tol})[0]
	return pc.Phi, pc.Num
}

// scratch is the reusable working memory of the per-point kernel:
// reference-point indices, θ1 weights, per-AP confidences and the match
// table. Pooled so the steady-state confidence path allocates nothing.
type scratch struct {
	refs  []int32
	inv   []float64
	confs []PointConfidence
	slots []slot

	// The match table of the point being verified. Record n owns row
	// mark[n]-base of bits (a row is one match bit per TopK slot) when that
	// is below rows, and has not been probed for this point otherwise. A
	// scratch costs 4 B per record of the largest store it has served, plus
	// 8 B per 64 slots for each distinct neighbour of one point.
	mark       []uint32
	base, rows uint32
	bits       []uint64
}

// slot is the kernel's running state for one reported reading of a point.
type slot struct {
	mac         int32 // interned MAC, -1 when the store has never heard it
	hits        int32 // matches counted in the current reference's area
	wSum, wMean float64
}

// resetTable starts the table of a point verified against n records. The
// previous point's rows are retired by moving base past them, so no mark is
// cleared between points or between stores sharing the pool: a mark left
// behind is below base (or zero), and mark-base wraps past any row count.
// Only when base+n would pass 2^32 are the marks zeroed and base restarted.
func (sc *scratch) resetTable(n int) {
	sc.base += sc.rows
	sc.rows, sc.bits = 0, sc.bits[:0]
	if len(sc.mark) < n {
		sc.mark = slices.Grow(sc.mark, n-len(sc.mark))[:n]
	}
	if sc.base == 0 || uint64(sc.base)+uint64(n) > math.MaxUint32 {
		clear(sc.mark)
		sc.base = 1
	}
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// resizeF64 returns a slice of length n reusing buf's capacity.
func resizeF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
