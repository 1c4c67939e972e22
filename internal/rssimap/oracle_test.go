package rssimap

import (
	"math"

	"trajforge/internal/geo"
	"trajforge/internal/wifi"
)

// oracleConfidences is the per-point kernel as it stood before the match
// table: one binary search per (reported MAC, reference, neighbour), Eq. 4–7
// read straight off the paper. It is kept as the reference the table is
// compared against bit for bit; the only edit is that RSSI is compared in
// int, which is the same comparison for every value a codec can carry.
func (s *Store) oracleConfidences(o geo.Point, scan wifi.Scan, cfg FeatureConfig) []PointConfidence {
	s.mu.RLock()
	defer s.mu.RUnlock()
	top := scan.TopK(cfg.TopK)
	out := make([]PointConfidence, len(top))
	refs := s.withinRadius(o, cfg.R)
	if len(refs) == 0 {
		for i, obs := range top {
			out[i] = PointConfidence{MAC: obs.MAC}
		}
		return out
	}
	const minDist = 0.05
	invSum := 0.0
	mass := 0.0
	inv := make([]float64, len(refs))
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
	if invSum == 0 {
		for i, obs := range top {
			out[i] = PointConfidence{MAC: obs.MAC, Num: len(refs)}
		}
		return out
	}
	for i, obs := range top {
		var phi float64
		var wSum, wMean float64
		var heard int
		if id, known := s.macIDs[obs.MAC]; known {
			for j, idx := range refs {
				theta1 := inv[j] / invSum
				th2 := 1.0
				if !cfg.DisableTheta2 {
					th2 = s.th2[idx]
				}
				phi += theta1 * th2 * s.oracleRPD(idx, id, obs.RSSI, int(cfg.Tol))
				if v, ok := s.records[idx].rssiOf(id); ok {
					wSum += inv[j]
					wMean += inv[j] * float64(v)
					heard++
				}
			}
		}
		pc := PointConfidence{MAC: obs.MAC, Phi: phi, Num: len(refs), TrustNum: mass, Heard: heard}
		if wSum > 0 {
			diff := float64(obs.RSSI) - wMean/wSum
			if diff < 0 {
				diff = -diff
			}
			pc.Residual = diff
		}
		out[i] = pc
	}
	return out
}

// oracleRPD is Eq. 4 over the counting area of reference h.
func (s *Store) oracleRPD(h, mac int32, x, tol int) float64 {
	area := s.neighbors[h]
	if len(area) == 0 {
		return 0
	}
	var hits int
	for _, idx := range area {
		if v, ok := s.records[idx].rssiOf(mac); ok {
			d := int(v) - x
			if d < 0 {
				d = -d
			}
			if d <= tol {
				hits++
			}
		}
	}
	return float64(hits) / float64(len(area))
}
