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
	// verification runs per chunk.
	PointConfidencesInto(dst []PointConfidence, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence
	// Features computes the Eq. 8 feature vector of an upload.
	Features(u *wifi.Upload, cfg FeatureConfig) ([]float64, error)
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

// ContextBackend is a Backend whose feature extraction can carry the
// originating request's context. Remote backends (internal/cluster) use the
// context deadline to bound forwarded RPCs, so admission control's
// deadline-aware shedding accounts remote time too; in-process backends
// don't need it and simply ignore the context. The verification server
// type-asserts for this interface and prefers FeaturesContext when present.
type ContextBackend interface {
	Backend
	// FeaturesContext computes the Eq. 8 feature vector of an upload,
	// propagating ctx's deadline into any forwarded work.
	FeaturesContext(ctx context.Context, u *wifi.Upload, cfg FeatureConfig) ([]float64, error)
}
