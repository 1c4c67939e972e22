// Package shardstore geo-shards the provider's crowdsourced RSSI history.
//
// The global rssimap.Store serializes every Add behind one write lock and
// every query behind one read lock — fine for a lab, a bottleneck for a
// provider ingesting uploads from a whole city. This package partitions the
// plane into square tiles and keeps one independent rssimap.Store per tile,
// so ingestion and verification in different districts never contend: each
// shard has its own RWMutex, grid, and θ2 cache.
//
// Correctness across tile boundaries is preserved by halo replication.
// Every record is owned by the tile containing it and replicated into any
// neighboring tile whose region lies within the halo margin
//
//	margin = MaxQueryRadius + Store.R
//
// of the record. With that margin, the single shard owning a query position
// contains every record any Eq. 5/7 reference query (radius ≤
// MaxQueryRadius) can reach, *and* the complete Eq. 4 counting area (radius
// Store.R) of every record those queries use as a reference — so a query
// against the owning shard returns results bit-identical to the global
// store, float accumulation order included (the per-shard grid uses the
// same absolute cells and preserves global insertion order). TileSize ≥
// 2·margin bounds replication: a record lands in at most the 4 tiles of one
// corner block, so Add touches at most 4 shards and queries exactly 1.
package shardstore

import (
	"fmt"
	"math"
	"sync"

	"trajforge/internal/geo"
	"trajforge/internal/parallel"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

// Config sizes the sharding.
type Config struct {
	// Store configures each per-tile rssimap.Store (counting radius R,
	// density base).
	Store rssimap.Config
	// TileSize is the shard tile side in metres. It must be at least
	// 2·(MaxQueryRadius + Store.R) so halo replication stays within one
	// corner block (≤ 4 shards per record).
	TileSize float64
	// MaxQueryRadius is the largest reference radius r the store guarantees
	// exact answers for. Queries beyond it silently degrade to the owning
	// shard's view (references in unreplicated tiles are missed).
	MaxQueryRadius float64
}

// DefaultConfig shards with the paper's calibrated store parameters, exact
// answers up to r = 5 m (double the paper's 2.5 m reference radius), and
// 25 m tiles.
func DefaultConfig() Config {
	return Config{Store: rssimap.DefaultConfig(), TileSize: 25, MaxQueryRadius: 5}
}

// Margin is the halo replication margin: a record is replicated into every
// neighboring tile whose region lies within this distance of it.
func (c Config) Margin() float64 { return c.MaxQueryRadius + c.Store.R }

// Validate checks the sharding geometry — the same checks New applies.
func (c Config) Validate() error {
	if c.TileSize <= 0 {
		return fmt.Errorf("shardstore: tile size %g must be positive", c.TileSize)
	}
	if c.MaxQueryRadius <= 0 {
		return fmt.Errorf("shardstore: max query radius %g must be positive", c.MaxQueryRadius)
	}
	if c.TileSize < 2*c.Margin() {
		return fmt.Errorf("shardstore: tile size %g must be >= 2*(MaxQueryRadius+R) = %g", c.TileSize, 2*c.Margin())
	}
	return nil
}

// TileOf returns the tile owning position p. The tiling is shared with
// internal/cluster, which distributes these same tiles across nodes — the
// geometry must agree bit-for-bit for cross-backend feature identity.
func (c Config) TileOf(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / c.TileSize)), int(math.Floor(p.Y / c.TileSize))}
}

// TileDist returns the distance from p to the (closed) region of tile t.
func (c Config) TileDist(p geo.Point, t [2]int) float64 {
	x0 := float64(t[0]) * c.TileSize
	y0 := float64(t[1]) * c.TileSize
	dx := math.Max(0, math.Max(x0-p.X, p.X-(x0+c.TileSize)))
	dy := math.Max(0, math.Max(y0-p.Y, p.Y-(y0+c.TileSize)))
	return math.Hypot(dx, dy)
}

// TilesFor appends the owner tile of p plus every neighboring tile within
// the halo margin — at most a 2×2 corner block given TileSize ≥ 2·Margin.
// The owner tile is always first.
func (c Config) TilesFor(p geo.Point, out [][2]int) [][2]int {
	out = out[:0]
	owner := c.TileOf(p)
	margin := c.Margin()
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			t := [2]int{owner[0] + dx, owner[1] + dy}
			if t == owner {
				continue
			}
			if c.TileDist(p, t) <= margin {
				out = append(out, t)
			}
		}
	}
	// Owner first: callers that only need the owning tile read out[0].
	out = append(out, [2]int{})
	copy(out[1:], out[:len(out)-1])
	out[0] = owner
	return out
}

// Store is a geo-sharded crowdsourced RSSI history. It implements
// rssimap.Backend, so detectors and the verification server use it
// interchangeably with the global store.
type Store struct {
	cfg    Config
	margin float64

	// mu guards the shard map and the canonical record log; the expensive
	// per-shard work (grid insertion, θ2 maintenance, queries) runs under
	// each shard's own lock, so ingestion in distant tiles proceeds in
	// parallel.
	mu     sync.RWMutex
	shards map[[2]int]*rssimap.Store
	log    []rssimap.ScanRecord
	// trust, when non-nil, is the contributor trust table installed on every
	// shard (existing and lazily created) — see rssimap.TrustWeighted.
	trust map[string]float64
}

var _ rssimap.Backend = (*Store)(nil)
var _ rssimap.TrustWeighted = (*Store)(nil)

// New builds a sharded store over the given records.
func New(cfg Config, records []rssimap.Record) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Validate the per-shard config eagerly, not on first Add.
	if _, err := rssimap.NewStore(cfg.Store, nil); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, margin: cfg.Margin(), shards: make(map[[2]int]*rssimap.Store)}
	s.Add(records)
	return s, nil
}

// Config returns the sharding configuration.
func (s *Store) Config() Config { return s.cfg }

func (s *Store) tileOf(p geo.Point) [2]int { return s.cfg.TileOf(p) }

// tilesFor appends the owner tile of p plus every neighboring tile within
// the halo margin — at most a 2×2 corner block given TileSize ≥ 2·margin.
func (s *Store) tilesFor(p geo.Point, out [][2]int) [][2]int {
	return s.cfg.TilesFor(p, out)
}

// Add ingests copies of the given records (the caller keeps its maps); see
// addScans.
func (s *Store) Add(records []rssimap.Record) {
	scans := make([]rssimap.ScanRecord, len(records))
	for i, rec := range records {
		scans[i] = rec.ScanRecord()
	}
	s.addScans(scans)
}

// AddUploads ingests every point of the given uploads that carries a scan.
func (s *Store) AddUploads(uploads []*wifi.Upload) {
	scans := rssimap.UploadScans(uploads)
	for i := range scans {
		// The log outlives the call; the uploads' scans stay the caller's.
		scans[i].Scan = scans[i].Scan.Clone()
	}
	s.addScans(scans)
}

// addScans ingests crowdsourced points the store may keep: each is journaled,
// then appended to its owner shard and halo-replicated to boundary neighbors.
// Shards are created lazily; per-shard insertion preserves the global arrival
// order.
func (s *Store) addScans(records []rssimap.ScanRecord) {
	if len(records) == 0 {
		return
	}
	// Group into per-shard batches first (order-preserving), so each shard
	// takes its write lock once per call instead of once per record.
	batches := make(map[[2]int][]rssimap.ScanRecord)
	var tiles [][2]int
	for _, rec := range records {
		tiles = s.tilesFor(rec.Pos, tiles)
		for _, t := range tiles {
			batches[t] = append(batches[t], rec)
		}
	}

	s.mu.Lock()
	s.log = append(s.log, records...)
	targets := make([]*rssimap.Store, 0, len(batches))
	order := make([][2]int, 0, len(batches))
	for t := range batches {
		sh, ok := s.shards[t]
		if !ok {
			// cfg.Store was validated in New; an empty store cannot fail.
			sh, _ = rssimap.NewStore(s.cfg.Store, nil)
			if s.trust != nil {
				sh.SetTrustWeights(s.trust)
			}
			s.shards[t] = sh
		}
		targets = append(targets, sh)
		order = append(order, t)
	}
	s.mu.Unlock()

	// The expensive part — grid insertion and incremental θ2 maintenance —
	// runs outside the top-level lock, under each shard's own write lock.
	for i, sh := range targets {
		sh.AddScans(batches[order[i]])
	}
}

// SetTrustWeights installs (nil removes) the contributor trust table on
// every shard. Because each shard preserves global insertion order and
// halo replication gives the owning shard the complete counting area of
// every reachable reference, the trusted-mass accumulation order per
// record matches the global store's — answers stay bit-identical across
// backends under any weight table.
func (s *Store) SetTrustWeights(weights map[string]float64) {
	s.mu.Lock()
	if weights == nil {
		s.trust = nil
	} else {
		s.trust = make(map[string]float64, len(weights))
		for k, v := range weights {
			s.trust[k] = v
		}
	}
	trust := s.trust
	targets := make([]*rssimap.Store, 0, len(s.shards))
	for _, sh := range s.shards {
		targets = append(targets, sh)
	}
	s.mu.Unlock()
	// Per-shard recomputation runs under each shard's own write lock.
	for _, sh := range targets {
		sh.SetTrustWeights(trust)
	}
}

// Len returns the number of canonical (un-replicated) records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.log)
}

// Records returns every canonical record in insertion order (fresh copies).
func (s *Store) Records() []rssimap.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]rssimap.Record, len(s.log))
	for i, rec := range s.log {
		out[i] = rec.Record()
	}
	return out
}

// shardAt returns the shard owning position p, or nil when no record has
// ever landed within the halo margin of p's tile (in which case no query of
// radius ≤ MaxQueryRadius around p can have references either).
func (s *Store) shardAt(p geo.Point) *rssimap.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[s.tileOf(p)]
}

// ConfidenceTol evaluates Eq. 7 against the shard owning o. Exact for
// r ≤ MaxQueryRadius.
func (s *Store) ConfidenceTol(o geo.Point, mac string, rssi int, r float64, tol rssimap.Tolerance) (phi float64, num int) {
	sh := s.shardAt(o)
	if sh == nil {
		return 0, 0
	}
	return sh.ConfidenceTol(o, mac, rssi, r, tol)
}

// Confidence evaluates Eq. 7 with exact RPD matching.
func (s *Store) Confidence(o geo.Point, mac string, rssi int, r float64) (phi float64, num int) {
	return s.ConfidenceTol(o, mac, rssi, r, 0)
}

// PointConfidences verifies the TopK strongest observations of one scan
// against the shard owning o.
func (s *Store) PointConfidences(o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	sh := s.shardAt(o)
	if sh == nil {
		return emptyConfidences(nil, scan, cfg)
	}
	return sh.PointConfidences(o, scan, cfg)
}

// PointConfidencesInto is PointConfidences appending into dst[:0] — the
// allocation-free form, routed to the shard owning o.
func (s *Store) PointConfidencesInto(dst []rssimap.PointConfidence, o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	sh := s.shardAt(o)
	if sh == nil {
		return emptyConfidences(dst, scan, cfg)
	}
	return sh.PointConfidencesInto(dst, o, scan, cfg)
}

// EmptyConfidences mirrors the global store's zero-reference answer: one
// zero-valued entry per reported TopK AP — the reply a query against a tile
// that never received a record must produce. Exported because
// internal/cluster short-circuits queries against empty tiles with the
// identical answer instead of forwarding them.
func EmptyConfidences(dst []rssimap.PointConfidence, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	top := scan.TopK(cfg.TopK)
	dst = dst[:0]
	for _, obs := range top {
		dst = append(dst, rssimap.PointConfidence{MAC: obs.MAC})
	}
	return dst
}

// emptyConfidences keeps the internal call sites short.
func emptyConfidences(dst []rssimap.PointConfidence, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	return EmptyConfidences(dst, scan, cfg)
}

// checkFeatureRadius rejects feature configs the sharding cannot answer
// exactly.
func (s *Store) checkFeatureRadius(cfg rssimap.FeatureConfig) error {
	if cfg.R > s.cfg.MaxQueryRadius {
		return fmt.Errorf("shardstore: feature radius %g exceeds MaxQueryRadius %g", cfg.R, s.cfg.MaxQueryRadius)
	}
	return nil
}

// Features computes the Eq. 8 feature vector of an upload, routing each
// point to the shard owning it. Results are bit-identical to the global
// store's.
func (s *Store) Features(u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	if err := s.checkFeatureRadius(cfg); err != nil {
		return nil, err
	}
	var buf []rssimap.PointConfidence
	return rssimap.FeaturesFrom(u, cfg, func(_ int, pos geo.Point, scan wifi.Scan) []rssimap.PointConfidence {
		sh := s.shardAt(pos)
		if sh == nil {
			buf = emptyConfidences(buf, scan, cfg)
			return buf
		}
		buf = sh.PointConfidencesInto(buf, pos, scan, cfg)
		return buf
	})
}

// FeaturesBatch extracts the feature vectors of many uploads across the
// worker pool; chunks land on whichever shards their points touch, so
// concurrent verification only contends when trajectories share a tile.
// Results are ordered by upload index and bit-identical to Features run
// serially.
func (s *Store) FeaturesBatch(uploads []*wifi.Upload, cfg rssimap.FeatureConfig) ([][]float64, error) {
	for i, u := range uploads {
		if err := u.Validate(); err != nil {
			return nil, fmt.Errorf("upload %d: rssimap: %w", i, err)
		}
	}
	if err := s.checkFeatureRadius(cfg); err != nil {
		return nil, err
	}
	out := make([][]float64, len(uploads))
	var firstErr error
	var errOnce sync.Once
	parallel.ForEachChunk(len(uploads), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			feat, err := s.Features(uploads[i], cfg)
			if err != nil {
				errOnce.Do(func() { firstErr = fmt.Errorf("upload %d: %w", i, err) })
				return
			}
			out[i] = feat
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Stats summarises shard occupancy.
type Stats struct {
	// Shards is the number of materialised tiles.
	Shards int `json:"shards"`
	// Records is the canonical record count.
	Records int `json:"records"`
	// StoredRecords counts per-shard copies, halo replicas included.
	StoredRecords int `json:"stored_records"`
	// MaxShardRecords is the most loaded shard's record count.
	MaxShardRecords int `json:"max_shard_records"`
	// TileSize echoes the configured tile side, metres.
	TileSize float64 `json:"tile_size"`
}

// Stats returns a snapshot of shard occupancy.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Shards: len(s.shards), Records: len(s.log), TileSize: s.cfg.TileSize}
	for _, sh := range s.shards {
		n := sh.Len()
		st.StoredRecords += n
		if n > st.MaxShardRecords {
			st.MaxShardRecords = n
		}
	}
	return st
}
