package rssimap

import (
	"context"
	"math"
	"math/bits"
	"sort"

	"trajforge/internal/geo"
	"trajforge/internal/wifi"
)

// FeatureConfig controls trajectory feature extraction (Eq. 8).
type FeatureConfig struct {
	// R is the reference radius r around each uploaded point (the paper
	// sweeps it in Fig. 4 and settles on 2.5 m).
	R float64
	// TopK is the number of strongest reported APs considered per point
	// ("we take the k strongest WiFi RSSIs into consideration").
	TopK int
	// Tol is the RPD matching tolerance in dB.
	Tol Tolerance
	// IncludeNum includes the Num_mac reference-point count features; the
	// paper includes them, and the ablation benches measure their value.
	IncludeNum bool
	// IncludeResiduals appends, per AP slot, the absolute difference
	// between the reported RSSI and the θ1-weighted mean of the reference
	// points that heard the same AP. The paper's Eq. 7 confidence counts
	// tolerance-window matches and throws away *how far off* a mismatching
	// value is — exactly the information that separates a 2–3 m replay
	// displacement from honest GPS error. An implementation extension in
	// the spirit of Eq. 8 (see DESIGN.md §4b); the ablation benches measure
	// its value.
	IncludeResiduals bool
	// DisableTheta2 drops the density-reliability weight from Eq. 7,
	// treating every reference point's RPD as equally reliable — the θ2
	// ablation of DESIGN.md §5.
	DisableTheta2 bool
	// IncludeSummary appends six trajectory-level aggregates of the
	// per-point confidences. The paper's concatenated vector (Eq. 8) is
	// sufficient at its 5,000-sample training scale; the aggregates make
	// the classifier sample-efficient at smaller scales without changing
	// what is measured (see DESIGN.md substitutions).
	IncludeSummary bool
}

// DefaultFeatureConfig mirrors the paper's final settings.
func DefaultFeatureConfig() FeatureConfig {
	return FeatureConfig{R: 2.5, TopK: 5, Tol: 1, IncludeNum: true, IncludeSummary: true, IncludeResiduals: true}
}

// summaryDim is the number of trajectory-level aggregate features.
const summaryDim = 6

// FeatureDim returns the length of the vector produced for an upload of n
// points.
func (c FeatureConfig) FeatureDim(n int) int {
	per := 1
	if c.IncludeNum {
		per++
	}
	if c.IncludeResiduals {
		per++
	}
	dim := n * c.TopK * per
	if c.IncludeSummary {
		dim += summaryDim
		if c.IncludeResiduals {
			dim += residualSummaryDim
		}
	}
	return dim
}

// residualSummaryDim is the number of trajectory-level residual aggregates.
const residualSummaryDim = 3

// PointConfidence is the verification result of one reported AP at one
// point.
type PointConfidence struct {
	MAC string
	// Phi is the Eq. 7 confidence of the reported RSSI.
	Phi float64
	// Num is the number of reference points used.
	Num int
	// TrustNum is the trusted reference mass: the sum of the contributors'
	// trust weights over the same reference points. Without a trust table
	// it equals float64(Num) exactly (integer-valued additions of 1.0), as
	// it does under an all-1.0 table — so trust-blind callers see identical
	// numbers. The feature vector reports coverage as TrustNum, which is
	// what stops a flood of low-trust uploads from inflating apparent
	// coverage even after individual θ1/θ2 down-weighting.
	TrustNum float64
	// Residual is |reported - θ1-weighted reference mean| in dB over the
	// references that heard the AP; NaN-free: it is 0 when no reference
	// heard the AP (Heard reports that case).
	Residual float64
	// Heard is the number of references that heard the AP at all.
	Heard int
}

// EmptyConfidences appends to dst[:0] the answer of a point no reference
// record is within r of: one zero entry per TopK reading, naming its MAC. The
// kernel answers exactly this when it finds no reference, and so does a
// backend that holds no records near the point (a cluster's empty tile).
func EmptyConfidences(dst []PointConfidence, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
	dst = dst[:0]
	for _, obs := range scan.TopK(cfg.TopK) {
		dst = append(dst, PointConfidence{MAC: obs.MAC})
	}
	return dst
}

// pointConfidencesLocked is the per-point verification kernel (Eq. 4–7). The
// returned slice is backed by sc.confs and valid only until the scratch is
// reused. Callers must hold the read lock.
//
// References within r of one point share most of their counting areas, so a
// neighbour record is probed once per point, for every reported reading at
// once, the first time any reference's area reaches it; its match bits are
// kept in the scratch's table and each reference sums bits over its area.
// The hit counts are the integers a probe per (reading, reference, neighbour)
// would count, and each reading's float accumulations still run in reference
// order, so no bit of any result depends on the table.
func (s *Store) pointConfidencesLocked(sc *scratch, o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
	top := scan.TopK(cfg.TopK)
	sc.refs = s.withinRadiusInto(sc.refs, o, cfg.R)
	refs := sc.refs
	if len(refs) == 0 || len(top) == 0 {
		sc.confs = EmptyConfidences(sc.confs, scan, cfg)
		return sc.confs
	}
	if cap(sc.confs) < len(top) {
		sc.confs = make([]PointConfidence, len(top))
	}
	out := sc.confs[:len(top)]
	// θ1 weights (Eq. 5), shared by every AP of the scan. The distance is
	// floored at a few centimetres so a coincident record cannot absorb all
	// weight. With a trust table installed, each reference's θ1 mass is
	// scaled by its contributor's weight, so low-trust records neither steer
	// Φ nor drag the residual reference mean at full strength (an all-1.0
	// table multiplies by exactly 1.0 and stays bit-identical).
	const minDist = 0.05
	invSum := 0.0
	mass := 0.0
	sc.inv = resizeF64(sc.inv, len(refs))
	inv := sc.inv
	for i, idx := range refs {
		d := math.Max(minDist, geo.Dist(s.records[idx].pos, o))
		inv[i] = 1 / d
		if s.wByID != nil {
			w := s.wByID[s.records[idx].contrib]
			inv[i] *= w
			mass += w
		} else {
			mass += 1.0
		}
		invSum += inv[i]
	}
	if invSum == 0 { // every reference weighted to zero: nothing to verify against
		for i, obs := range top {
			out[i] = PointConfidence{MAC: obs.MAC, Num: len(refs)}
		}
		return out
	}
	if cap(sc.slots) < len(top) {
		sc.slots = make([]slot, len(top))
	}
	slots := sc.slots[:len(top)]
	for i, obs := range top {
		out[i] = PointConfidence{MAC: obs.MAC, Num: len(refs), TrustNum: mass}
		slots[i] = slot{mac: -1} // matches no interned MAC
		if id, known := s.macIDs[obs.MAC]; known {
			slots[i].mac = id
		}
	}
	words := (len(top) + 63) / 64 // table row: one match bit per slot
	sc.resetTable(len(s.records))
	for j, idx := range refs {
		area := s.neighbors[idx]
		for _, n := range area {
			row := sc.mark[n] - sc.base
			if row >= sc.rows { // first reference to reach n: probe it for every slot
				row = sc.rows
				sc.rows++
				sc.mark[n] = sc.base + row
				sc.bits = append(sc.bits, make([]uint64, words)...)
				for i, obs := range top {
					if v, ok := s.records[n].rssiOf(slots[i].mac); ok && withinTol(v, obs.RSSI, cfg.Tol) {
						sc.bits[int(row)*words+i>>6] |= 1 << (i & 63)
					}
				}
			}
			for w, b := range sc.bits[int(row)*words:][:words] {
				for ; b != 0; b &= b - 1 {
					slots[w<<6|bits.TrailingZeros64(b)].hits++
				}
			}
		}
		theta1 := inv[j] / invSum
		th2 := 1.0
		if !cfg.DisableTheta2 {
			th2 = s.th2[idx]
		}
		for i := range slots {
			sl := &slots[i]
			if sl.mac < 0 {
				continue
			}
			rpd := 0.0 // Eq. 4 over C_H(R)
			if len(area) > 0 {
				rpd = float64(sl.hits) / float64(len(area))
			}
			sl.hits = 0
			out[i].Phi += theta1 * th2 * rpd
			if v, ok := s.records[idx].rssiOf(sl.mac); ok {
				sl.wSum += inv[j]
				sl.wMean += inv[j] * float64(v)
				out[i].Heard++
			}
		}
	}
	for i, obs := range top {
		if sl := slots[i]; sl.wSum > 0 {
			diff := float64(obs.RSSI) - sl.wMean/sl.wSum
			if diff < 0 {
				diff = -diff
			}
			out[i].Residual = diff
		}
	}
	return out
}

// Features is the package function Features against s with no deadline.
// bench/ calls this method by name.
func (s *Store) Features(u *wifi.Upload, cfg FeatureConfig) ([]float64, error) {
	return Features(context.Background(), s, u, cfg)
}

// vector concatenates per-point answers into the Eq. 8 vector plus the
// optional summary block. It allocates only the returned vector; the
// aggregate buffers live in fb.
func (fb *featBuf) vector(answers []Answer, cfg FeatureConfig) []float64 {
	n := len(answers)
	out := make([]float64, 0, cfg.FeatureDim(n))

	// Per-point aggregates for the summary block.
	pointPhi := resizeF64(fb.pointPhi, n)[:0]
	pointNum := resizeF64(fb.pointNum, n)[:0]
	pointRes := resizeF64(fb.pointRes, n)[:0]
	var zeroRefPoints int

	for _, a := range answers {
		confs := a.Confs
		var phiSum, numSum, resSum float64
		var resN int
		for j := 0; j < cfg.TopK; j++ {
			if j >= len(confs) {
				if cfg.IncludeNum {
					out = append(out, 0)
				}
				out = append(out, 0)
				if cfg.IncludeResiduals {
					out = append(out, 0)
				}
				continue
			}
			if cfg.IncludeNum {
				// Coverage is reported as trusted mass, not raw cardinality
				// (identical without a trust table — see TrustNum).
				out = append(out, confs[j].TrustNum)
			}
			out = append(out, confs[j].Phi)
			if cfg.IncludeResiduals {
				out = append(out, confs[j].Residual)
				if confs[j].Heard > 0 {
					resSum += confs[j].Residual
					resN++
				}
			}
			phiSum += confs[j].Phi
			numSum += confs[j].TrustNum
		}
		slots := float64(cfg.TopK)
		pointPhi = append(pointPhi, phiSum/slots)
		pointNum = append(pointNum, numSum/slots)
		if resN > 0 {
			pointRes = append(pointRes, resSum/float64(resN))
		}
		if len(confs) == 0 || confs[0].Num == 0 {
			zeroRefPoints++
		}
	}

	if cfg.IncludeSummary {
		out = append(out,
			mean(pointPhi),
			fb.quantile(pointPhi, 0.25),
			minOf(pointPhi),
			mean(pointNum),
			minOf(pointNum),
			float64(zeroRefPoints)/float64(n),
		)
		if cfg.IncludeResiduals {
			out = append(out,
				mean(pointRes),
				fb.quantile(pointRes, 0.75),
				maxOf(pointRes),
			)
		}
	}
	// Keep the (possibly re-grown) aggregate buffers.
	fb.pointPhi, fb.pointNum, fb.pointRes = pointPhi, pointNum, pointRes
	return out
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// quantile interpolates the q-quantile of xs, sorting a copy in fb.
func (fb *featBuf) quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	fb.sorted = append(fb.sorted[:0], xs...)
	return quantileSorted(fb.sorted, q)
}

// quantileSorted sorts buf in place and interpolates the q-quantile.
func quantileSorted(sorted []float64, q float64) float64 {
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
