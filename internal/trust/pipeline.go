package trust

import (
	"math"
	"sort"
	"sync"
	"time"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

// Config parameterises the trust-weighted ingestion pipeline.
type Config struct {
	Ledger     LedgerConfig
	Quarantine QuarantineConfig
	Drift      DriftConfig
	// TileSize is the tile side (metres) used for contributor diversity,
	// per-tile provenance stats, and the drift alarm. On a cluster backend
	// it should match the cluster's tiling (shardstore.Config.TileSize).
	TileSize float64
	// WeightRefresh is how many accepted uploads pass between pushes of
	// the ledger's weight table into the serving store's θ2 term. The
	// cadence is counter-based so WAL replay reproduces pushes exactly.
	WeightRefresh int
}

// DefaultConfig returns the calibrated pipeline parameters.
func DefaultConfig() Config {
	return Config{
		Ledger:     DefaultLedgerConfig(),
		Quarantine: DefaultQuarantineConfig(),
		Drift:      DefaultDriftConfig(),
		TileSize:   25, WeightRefresh: 32,
	}
}

func (c Config) withDefaults() Config {
	if c.TileSize <= 0 {
		c.TileSize = 25
	}
	if c.WeightRefresh <= 0 {
		c.WeightRefresh = 32
	}
	return c
}

// TileOf returns the tile owning position p under the pipeline tiling.
func (c Config) TileOf(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / c.TileSize)), int(math.Floor(p.Y / c.TileSize))}
}

// Pipeline is the poisoning-resistant ingestion path: accepted uploads
// pass through the contributor ledger, the quarantine staging store, and
// the drift alarm before any of their points reach the serving backend,
// and the ledger's trust weights are periodically pushed into the
// backend's θ2 density term. All state transitions are driven by the
// caller-supplied event time, so WAL replay reproduces the pipeline
// bit-identically.
type Pipeline struct {
	mu       sync.Mutex
	cfg      Config
	backend  rssimap.Backend
	weighted rssimap.TrustWeighted // nil when the backend can't weight

	ledger     *Ledger
	quarantine *Quarantine
	drift      *DriftDetector

	accepted         int
	quarantinedTotal int
	driftGated       int
	lastNow          time.Time
	lastPush         []WeightEntry

	perTileContrib map[[2]int]map[string]struct{}
	perTilePromote map[[2]int]int
}

// NewPipeline builds a pipeline in front of the given serving backend.
// When the backend implements rssimap.TrustWeighted, ledger weights are
// pushed into its θ2 term; otherwise quarantine and drift still apply.
func NewPipeline(cfg Config, backend rssimap.Backend) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg: cfg, backend: backend,
		ledger:         NewLedger(cfg.Ledger),
		quarantine:     NewQuarantine(cfg.Quarantine),
		drift:          NewDriftDetector(cfg.Drift),
		perTileContrib: make(map[[2]int]map[string]struct{}),
		perTilePromote: make(map[[2]int]int),
	}
	if w, ok := backend.(rssimap.TrustWeighted); ok {
		p.weighted = w
	}
	return p
}

// IngestResult reports what one accepted upload's ingestion did.
type IngestResult struct {
	// Promoted is how many reference points this upload released into
	// the serving store (corroborated older points included).
	Promoted int
	// Quarantined is how many of the upload's own points were staged.
	Quarantined int
	// DriftGated is how many points cleared quarantine but were withheld
	// from the serving store because their tile is in drift alarm.
	DriftGated int
	// Weight is the contributor's trust weight at ingestion time.
	Weight float64
}

// IngestUpload runs one accepted upload through the pipeline at event
// time now (the upload's latest point time, so recovery replay is
// deterministic). pFake is the detector's verdict score; 1 - pFake feeds
// the contributor's agreement statistic.
func (p *Pipeline) IngestUpload(u *wifi.Upload, pFake float64, now time.Time) IngestResult {
	return p.ingest(u, pFake, now, true)
}

// ReplayUpload is IngestUpload for an upload whose promotions the backend
// already holds: the pipeline's state moves, and nothing is written.
func (p *Pipeline) ReplayUpload(u *wifi.Upload, pFake float64, now time.Time) {
	p.ingest(u, pFake, now, false)
}

func (p *Pipeline) ingest(u *wifi.Upload, pFake float64, now time.Time, write bool) IngestResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastNow = now

	records := rssimap.UploadRecords([]*wifi.Upload{u})
	tiles := distinctTiles(p.cfg, records)
	p.ledger.Observe(u.Contributor, tiles, 1-pFake, now)
	w := p.ledger.Weight(u.Contributor, now)
	for _, t := range tiles {
		set, ok := p.perTileContrib[t]
		if !ok {
			set = make(map[string]struct{})
			p.perTileContrib[t] = set
		}
		set[u.Contributor] = struct{}{}
	}

	p.quarantine.Expire(now)

	var res IngestResult
	res.Weight = w
	var release []rssimap.Record
	for _, rec := range records {
		promoted, quarantined := p.quarantine.Ingest(rec, w, now)
		release = append(release, promoted...)
		if quarantined {
			res.Quarantined++
		}
	}
	p.quarantinedTotal += res.Quarantined
	// Drift gate: a tile in alarm has its reference distribution moving
	// too fast to trust — promotions into it are withheld from serving,
	// but still observed, so the alarm keeps tracking the live traffic
	// and can clear once the distribution settles back.
	serve := release[:0]
	var gatedBy map[string]int
	for _, rec := range release {
		t := p.cfg.TileOf(rec.Pos)
		alarmed := p.drift.TileAlarmed(t)
		p.drift.Observe(t, rec.RSSI)
		if alarmed {
			res.DriftGated++
			if gatedBy == nil {
				gatedBy = make(map[string]int)
			}
			gatedBy[rec.Contributor]++
			continue
		}
		p.perTilePromote[t]++
		serve = append(serve, rec)
	}
	// Contributors whose points were gated are drift-implicated: the
	// ledger divides their weight below the floor, and because θ2/θ1
	// weights apply at query time, the mass they promoted BEFORE the
	// alarm fired stops counting too.
	for name, n := range gatedBy {
		p.ledger.Penalize(name, n)
	}
	p.driftGated += res.DriftGated
	res.Promoted = len(serve)
	if write && len(serve) > 0 {
		p.backend.Add(serve)
	}

	p.accepted++
	if p.weighted != nil && p.accepted%p.cfg.WeightRefresh == 0 {
		p.pushWeightsLocked(now)
	}
	return res
}

// pushWeightsLocked installs the ledger's current weight table on the
// backend and remembers it for snapshot restore.
func (p *Pipeline) pushWeightsLocked(now time.Time) {
	table := p.ledger.Weights(now)
	p.lastPush = weightEntries(table)
	p.weighted.SetTrustWeights(table)
}

// WeightEntry is one (contributor, weight) pair of the last pushed
// table, kept sorted for deterministic snapshots.
type WeightEntry struct {
	Name   string
	Weight float64
}

func weightEntries(table map[string]float64) []WeightEntry {
	out := make([]WeightEntry, 0, len(table))
	for k, v := range table {
		out = append(out, WeightEntry{Name: k, Weight: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// distinctTiles returns the distinct tiles the records touch, sorted.
func distinctTiles(cfg Config, records []rssimap.Record) [][2]int {
	seen := make(map[[2]int]struct{})
	var out [][2]int
	for _, rec := range records {
		t := cfg.TileOf(rec.Pos)
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	sortTiles(out)
	return out
}

// Weight returns the contributor's current trust weight at the
// pipeline's latest event time.
func (p *Pipeline) Weight(name string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ledger.Weight(name, p.lastNow)
}

// DriftAlarmReason returns the health-reason string when any tile is in
// drift alarm, "" otherwise.
func (p *Pipeline) DriftAlarmReason() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drift.AlarmReason()
}

// TileStat is the per-tile provenance summary surfaced in /v1/stats.
type TileStat struct {
	Tile         [2]int  `json:"tile"`
	Contributors int     `json:"contributors"`
	Promoted     int     `json:"promoted"`
	DriftAlarmed bool    `json:"drift_alarmed,omitempty"`
	DriftDist    float64 `json:"drift_dist,omitempty"`
}

// Stats is the pipeline summary surfaced in /v1/stats.
type Stats struct {
	// WeightingActive reports whether ledger weights reach the serving
	// store's θ2 term. False means the backend is not rssimap.TrustWeighted
	// (the cluster store): quarantine and drift still run, re-weighting
	// does not.
	WeightingActive  bool       `json:"weighting_active"`
	Contributors     int        `json:"contributors"`
	AcceptedUploads  int        `json:"accepted_uploads"`
	Promoted         int        `json:"promoted"`
	Pending          int        `json:"pending_quarantine"`
	QuarantinedTotal int        `json:"quarantined_total"`
	Expired          int        `json:"expired"`
	DriftGated       int        `json:"drift_gated"`
	TrustHistogram   []int      `json:"trust_histogram"`
	DriftAlarmed     [][2]int   `json:"drift_alarmed,omitempty"`
	Tiles            []TileStat `json:"tiles,omitempty"`
}

// Stats snapshots the pipeline summary. Tile stats are sorted and capped
// at maxTiles (0 = unlimited) so a city-scale store can't blow up the
// stats payload.
func (p *Pipeline) Stats(maxTiles int) Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		WeightingActive:  p.weighted != nil,
		Contributors:     p.ledger.Len(),
		AcceptedUploads:  p.accepted,
		Promoted:         p.quarantine.PromotedTotal(),
		Pending:          p.quarantine.Pending(),
		QuarantinedTotal: p.quarantinedTotal,
		Expired:          p.quarantine.ExpiredTotal(),
		DriftGated:       p.driftGated,
		TrustHistogram:   p.ledger.Histogram(10, p.lastNow),
		DriftAlarmed:     p.drift.Alarmed(),
	}
	drift := make(map[[2]int]TileDriftState)
	for _, td := range p.drift.State() {
		drift[td.Tile] = td
	}
	tiles := make([][2]int, 0, len(p.perTileContrib))
	for t := range p.perTileContrib {
		tiles = append(tiles, t)
	}
	sortTiles(tiles)
	if maxTiles > 0 && len(tiles) > maxTiles {
		tiles = tiles[:maxTiles]
	}
	for _, t := range tiles {
		ts := TileStat{Tile: t, Contributors: len(p.perTileContrib[t]), Promoted: p.perTilePromote[t]}
		if td, ok := drift[t]; ok {
			ts.DriftAlarmed = td.Alarmed
			ts.DriftDist = td.LastDist
		}
		st.Tiles = append(st.Tiles, ts)
	}
	return st
}

// PipelineState is the gob-serialisable pipeline state embedded in the
// server's snapshots, so quarantine/ledger/drift state survives
// compaction the same way the serving store does.
type PipelineState struct {
	Contributors []ContributorState
	Quarantine   QuarantineState
	Drift        []TileDriftState
	Accepted     int
	Quarantined  int
	DriftGated   int
	LastNow      time.Time
	LastPush     []WeightEntry
	PerTile      []TileContribState
}

// TileContribState is the serialisable per-tile provenance summary.
type TileContribState struct {
	Tile         [2]int
	Contributors []string // sorted
	Promoted     int
}

// State snapshots the whole pipeline deterministically.
func (p *Pipeline) State() PipelineState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PipelineState{
		Contributors: p.ledger.State(),
		Quarantine:   p.quarantine.State(),
		Drift:        p.drift.State(),
		Accepted:     p.accepted,
		Quarantined:  p.quarantinedTotal,
		DriftGated:   p.driftGated,
		LastNow:      p.lastNow,
		LastPush:     append([]WeightEntry(nil), p.lastPush...),
	}
	tiles := make([][2]int, 0, len(p.perTileContrib))
	for t := range p.perTileContrib {
		tiles = append(tiles, t)
	}
	sortTiles(tiles)
	for _, t := range tiles {
		names := make([]string, 0, len(p.perTileContrib[t]))
		for n := range p.perTileContrib[t] {
			names = append(names, n)
		}
		sort.Strings(names)
		st.PerTile = append(st.PerTile, TileContribState{Tile: t, Contributors: names, Promoted: p.perTilePromote[t]})
	}
	return st
}

// RestoreState replaces the pipeline contents with a snapshot and, when
// the backend is trust-weighted, re-installs the last pushed weight
// table so the recovered store's θ2 term matches the pre-crash store
// bit-identically.
func (p *Pipeline) RestoreState(st PipelineState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ledger.RestoreState(st.Contributors)
	p.quarantine.RestoreState(st.Quarantine)
	p.drift.RestoreState(st.Drift)
	p.accepted = st.Accepted
	p.quarantinedTotal = st.Quarantined
	p.driftGated = st.DriftGated
	p.lastNow = st.LastNow
	p.lastPush = append([]WeightEntry(nil), st.LastPush...)
	p.perTileContrib = make(map[[2]int]map[string]struct{}, len(st.PerTile))
	p.perTilePromote = make(map[[2]int]int, len(st.PerTile))
	for _, ts := range st.PerTile {
		set := make(map[string]struct{}, len(ts.Contributors))
		for _, n := range ts.Contributors {
			set[n] = struct{}{}
		}
		p.perTileContrib[ts.Tile] = set
		p.perTilePromote[ts.Tile] = ts.Promoted
	}
	if p.weighted != nil && len(p.lastPush) > 0 {
		table := make(map[string]float64, len(p.lastPush))
		for _, e := range p.lastPush {
			table[e.Name] = e.Weight
		}
		p.weighted.SetTrustWeights(table)
	}
}

// Pending returns how many points currently wait in quarantine.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quarantine.Pending()
}
