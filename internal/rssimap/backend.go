package rssimap

import (
	"context"

	"trajforge/internal/geo"
	"trajforge/internal/wifi"
)

// Backend is the verification surface of a crowdsourced RSSI history: the
// ingestion path (Add/AddUploads), the per-point Eq. 7 confidence query, and
// the Eq. 8 feature extraction the WiFi detector consumes. Store implements
// it as one global grid-indexed database; cluster.Store implements it as
// tiles spread over shard nodes. Detector training, the verification
// server, and snapshot persistence all program against this interface so a
// provider can swap backends without touching the pipeline.
//
// Both calls the served path makes carry the request's context and fail
// closed: a backend that cannot reach its records returns an error, never an
// answer computed from no data. Every confidence answer comes with the Mark
// of the state it read, and FeaturesReusing takes such answers back: a
// streaming session's close hands over what its appends computed, and the
// backend reuses each one it can prove still exact (see reuse.go).
type Backend interface {
	// Len returns the number of historical records.
	Len() int
	// Records returns every record in insertion order (fresh copies) — the
	// serialization surface snapshots use.
	Records() []Record
	// Add ingests crowdsourced records incrementally.
	Add(records []Record)
	// AddUploads ingests every point of the given uploads that carries a scan.
	AddUploads(uploads []*wifi.Upload)
	// PointConfidencesInto verifies the TopK strongest observations of one
	// scan at o (Eq. 7 per AP), appending into dst[:0] — the form streaming
	// verification runs per chunk — and returns the mark of the state the
	// answer read.
	PointConfidencesInto(ctx context.Context, dst []PointConfidence, o geo.Point, scan wifi.Scan, cfg FeatureConfig) ([]PointConfidence, Mark, error)
	// Features computes the Eq. 8 feature vector of an upload.
	Features(u *wifi.Upload, cfg FeatureConfig) ([]float64, error)
	// FeaturesReusing is Features carrying the request's context, taking
	// point i's confidences from prior[i] wherever the backend proves them
	// still exact (prior answers were computed under the same cfg) and
	// computing the rest; computed counts the latter. A nil prior computes
	// every point.
	FeaturesReusing(ctx context.Context, u *wifi.Upload, cfg FeatureConfig, prior []Answer) (feat []float64, computed int, err error)
	// FeaturesBatch extracts the feature vectors of many uploads in parallel,
	// bit-identical to calling Features serially.
	FeaturesBatch(uploads []*wifi.Upload, cfg FeatureConfig) ([][]float64, error)
}

var _ Backend = (*Store)(nil)

// TrustWeighted is the optional trust-weighting surface of a Backend: a
// contributor → weight table that down-weights low-trust mass in the θ2
// density term. Store implements it; backends that cannot (remote cluster
// stores) simply don't, and callers type-assert.
type TrustWeighted interface {
	// SetTrustWeights installs (nil removes) the contributor trust table.
	// Weights apply to records already stored and records added later; an
	// all-1.0 table is bit-identical to no table.
	SetTrustWeights(weights map[string]float64)
}

var _ TrustWeighted = (*Store)(nil)
