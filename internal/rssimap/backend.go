package rssimap

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"trajforge/internal/parallel"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// Backend is the verification surface of a crowdsourced RSSI history: the
// ingestion path (Add/AddUploads), the snapshot surface (Len/Records), and
// Confidences, the one read verification makes of it (Eq. 4–7). Store
// implements it as one global grid-indexed database; cluster.Store as tiles
// spread over shard nodes. Everything above Confidences — the Eq. 8 vector of
// an upload, with or without prior answers, the batch form, a streaming
// window's vector — is written once, as the functions below, so every backend
// yields the same bits for the same answers.
//
// Confidences carries the request's context and fails closed: a backend that
// cannot reach its records returns an error, never an answer computed from no
// data. Every answer comes with the Mark of the state it read, and the call
// takes such answers back as prior: a streaming session's close hands over
// what its appends computed, and the backend reuses each one it can prove
// still exact (see reuse.go).
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
	// Confidences verifies the TopK strongest readings of scans[i] at pts[i]
	// for every i (Eq. 7 per AP) and writes point i's answer to dst[i]: either
	// prior[i] itself, when the backend proves it still exact under cfg
	// (prior answers were computed under the same cfg; prior may be shorter
	// than pts or nil), or fresh confidences with the mark of the state they
	// read. A fresh answer may reuse dst[i].Confs as storage, so dst must not
	// hold a prior answer's slice; the call never writes into prior's. It
	// returns how many points it computed rather than reused. The arguments
	// are checked by CheckQuery.
	Confidences(ctx context.Context, dst []Answer, pts []trajectory.Point, scans []wifi.Scan, cfg FeatureConfig, prior []Answer) (computed int, err error)
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

// Validate reports a feature config no backend can answer: a radius or a
// top-k that is not positive.
func (c FeatureConfig) Validate() error {
	if !(c.R > 0) {
		return fmt.Errorf("rssimap: feature radius %g must be positive", c.R)
	}
	if c.TopK <= 0 {
		return fmt.Errorf("rssimap: top-k %d must be positive", c.TopK)
	}
	return nil
}

// CheckQuery validates the arguments of a Confidences call: a valid config,
// one scan per point, and room in dst for every answer.
func CheckQuery(dst []Answer, pts []trajectory.Point, scans []wifi.Scan, cfg FeatureConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(scans) != len(pts) || len(dst) < len(pts) {
		return fmt.Errorf("rssimap: %d scans and %d answer slots for %d points", len(scans), len(dst), len(pts))
	}
	return nil
}

// Features computes the Eq. 8 feature vector of an upload against b: for
// each point, the (Num_mac, Φ) pairs of the TopK strongest reported APs,
// concatenated in point order, optionally followed by trajectory-level
// aggregates. Points that heard fewer than TopK APs are padded with zeros.
// It allocates only the returned vector.
func Features(ctx context.Context, b Backend, u *wifi.Upload, cfg FeatureConfig) ([]float64, error) {
	feat, _, err := ReuseFeatures(ctx, b, u, cfg, nil)
	return feat, err
}

// ReuseFeatures is Features handing b the prior answers of u's points (see
// Backend.Confidences); computed is how many points b did not reuse. Against
// a Store the vector is bit-identical to Features at one instant.
func ReuseFeatures(ctx context.Context, b Backend, u *wifi.Upload, cfg FeatureConfig, prior []Answer) (feat []float64, computed int, err error) {
	if err := u.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rssimap: %w", err)
	}
	fb := featPool.Get().(*featBuf)
	defer fb.release(prior)
	n := u.Traj.Len()
	fb.answers = slices.Grow(fb.answers[:0], n)[:n] // the slots keep their storage
	if computed, err = b.Confidences(ctx, fb.answers, u.Traj.Points, u.Scans, cfg, prior); err != nil {
		return nil, 0, err
	}
	return fb.vector(fb.answers, cfg), computed, nil
}

// BatchFeatures computes the feature vectors of many uploads across the
// worker pool, ordered by upload index and bit-identical to Features run
// serially. The error of the lowest-index failing upload is returned.
func BatchFeatures(b Backend, uploads []*wifi.Upload, cfg FeatureConfig) ([][]float64, error) {
	return parallel.MapErr(len(uploads), func(i int) ([]float64, error) {
		feat, err := Features(context.Background(), b, uploads[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("upload %d: %w", i, err)
		}
		return feat, nil
	})
}

// AnswerFeatures is the Eq. 8 vector of a trajectory whose points' answers
// are already in hand, in point order — what a streaming session scores its
// sliding window with. cfg must be the config the answers were computed
// under.
func AnswerFeatures(answers []Answer, cfg FeatureConfig) []float64 {
	fb := featPool.Get().(*featBuf)
	defer featPool.Put(fb)
	return fb.vector(answers, cfg)
}

// featBuf is the pooled working memory of one feature vector: the answer
// slots of its query and the summary aggregates.
type featBuf struct {
	answers []Answer

	pointPhi []float64
	pointNum []float64
	pointRes []float64
	sorted   []float64
}

var featPool = sync.Pool{New: func() any { return new(featBuf) }}

// release returns fb to the pool. A slot the backend filled with a prior
// answer is emptied first: its slice is the prior's owner's (a session's
// arena), and the next query would write into it.
func (fb *featBuf) release(prior []Answer) {
	for i := range min(len(prior), len(fb.answers)) {
		if sameStorage(fb.answers[i].Confs, prior[i].Confs) {
			fb.answers[i] = Answer{}
		}
	}
	featPool.Put(fb)
}

// sameStorage reports whether a and b start at the same backing element.
func sameStorage(a, b []PointConfidence) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}
