package detect

import (
	"context"
	"fmt"

	"trajforge/internal/parallel"
	"trajforge/internal/rssimap"
	"trajforge/internal/stats"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// WiFiDetector is the paper's dedicated countermeasure (Sec. III-C): every
// uploaded point carries a WiFi scan; the crowdsourced store turns the scan
// into (Num, Φ) confidence features, and an XGBoost model labels the whole
// trajectory. The positive class is "fake". Store is any rssimap.Backend —
// the global in-memory store or the distributed cluster store.
type WiFiDetector struct {
	Store    rssimap.Backend
	Model    *xgb.Model
	Features rssimap.FeatureConfig
}

// TrainWiFiDetector fits the detector from labelled uploads against a
// historical store.
func TrainWiFiDetector(store rssimap.Backend, real, fake []*wifi.Upload,
	fcfg rssimap.FeatureConfig, xcfg xgb.Config) (*WiFiDetector, error) {
	if store == nil || store.Len() == 0 {
		return nil, fmt.Errorf("detect: historical store is empty")
	}
	if len(real) == 0 || len(fake) == 0 {
		return nil, fmt.Errorf("detect: need both real (%d) and fake (%d) uploads", len(real), len(fake))
	}
	realX, err := rssimap.BatchFeatures(store, real, fcfg)
	if err != nil {
		return nil, fmt.Errorf("detect: features of real %w", err)
	}
	fakeX, err := rssimap.BatchFeatures(store, fake, fcfg)
	if err != nil {
		return nil, fmt.Errorf("detect: features of fake %w", err)
	}
	X := make([][]float64, 0, len(real)+len(fake))
	y := make([]float64, 0, len(real)+len(fake))
	for _, feat := range realX {
		X = append(X, feat)
		y = append(y, 0)
	}
	for _, feat := range fakeX {
		X = append(X, feat)
		y = append(y, 1)
	}
	model, err := xgb.Train(X, y, xcfg)
	if err != nil {
		return nil, fmt.Errorf("detect: train WiFi detector: %w", err)
	}
	return &WiFiDetector{Store: store, Model: model, Features: fcfg}, nil
}

// ProbFake returns P(fake | upload).
func (d *WiFiDetector) ProbFake(u *wifi.Upload) (float64, error) {
	feat, err := rssimap.Features(context.Background(), d.Store, u, d.Features)
	if err != nil {
		return 0, err
	}
	return d.Model.PredictProb(feat), nil
}

// ProbFakeBatch returns P(fake | upload) for many uploads, fanning the
// feature extraction across the worker pool and scoring the assembled
// feature block through the compiled flat forest in cache-friendly chunks
// (xgb.PredictBatchInto). Results are ordered by upload index and
// bit-identical to calling ProbFake serially.
func (d *WiFiDetector) ProbFakeBatch(uploads []*wifi.Upload) ([]float64, error) {
	feats, err := rssimap.BatchFeatures(d.Store, uploads, d.Features)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(feats))
	parallel.ForEachChunk(len(feats), func(lo, hi int) {
		d.Model.PredictBatchInto(out[lo:hi], feats[lo:hi])
	})
	return out, nil
}

// IsFake applies the 0.5 threshold.
func (d *WiFiDetector) IsFake(u *wifi.Upload) (bool, error) {
	p, err := d.ProbFake(u)
	return p >= 0.5, err
}

// EvaluateWiFi scores the detector on labelled uploads; fake is the
// positive class. Uploads are verified through the batch path.
func (d *WiFiDetector) EvaluateWiFi(real, fake []*wifi.Upload) (stats.Confusion, error) {
	var c stats.Confusion
	realP, err := d.ProbFakeBatch(real)
	if err != nil {
		return c, fmt.Errorf("detect: evaluate real %w", err)
	}
	fakeP, err := d.ProbFakeBatch(fake)
	if err != nil {
		return c, fmt.Errorf("detect: evaluate fake %w", err)
	}
	for _, p := range realP {
		c.Observe(p >= 0.5, false)
	}
	for _, p := range fakeP {
		c.Observe(p >= 0.5, true)
	}
	return c, nil
}

// AUC scores the detector threshold-free over labelled uploads: the
// probability that a random fake outranks a random real in P(fake).
func (d *WiFiDetector) AUC(real, fake []*wifi.Upload) (float64, error) {
	pos, err := d.ProbFakeBatch(fake)
	if err != nil {
		return 0, fmt.Errorf("detect: AUC fake %w", err)
	}
	neg, err := d.ProbFakeBatch(real)
	if err != nil {
		return 0, fmt.Errorf("detect: AUC real %w", err)
	}
	return stats.AUC(pos, neg), nil
}
