package rssimap

import (
	"context"
	"math"

	"trajforge/internal/geo"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// Reuse. A point's confidences (Eq. 4–7) read only records within r + R of
// it: the references within r, and each reference's counting area within R.
// A store only ever appends, so an answer computed at o stays exact while no
// record has landed within r + R of o and no trust table has been installed
// since. A Mark names the store state an answer saw; Confidences takes an
// earlier answer wherever its mark proves it still exact and runs the kernel
// for the rest.

// Mark is the store state a confidence answer was computed against: a
// generation naming the backend and its trust table, and how many records
// (log entries) the answer saw. Only the backend that issued a mark can judge
// it. The zero Mark names no state and is always stale.
type Mark struct {
	gen *Generation
	n   int
}

// Generation is one state of a backend other than its record count. A backend
// takes a new one when it is built and whenever its answers change other than
// by appending records (a trust table push), so a mark from another backend,
// or from before the change, names a generation the backend no longer has.
// Generations compare by identity.
type Generation struct{ _ byte } // not zero-size: each one has its own address

// NewGeneration returns a generation no backend has used.
func NewGeneration() *Generation { return new(Generation) }

// MarkAt is the mark of an answer computed by the backend at generation gen
// from its first n records.
func MarkAt(gen *Generation, n int) Mark { return Mark{gen: gen, n: n} }

// At returns the mark's generation and record count. The zero Mark's
// generation is nil, which no backend has.
func (m Mark) At() (gen *Generation, n int) { return m.gen, m.n }

// Answer is one point's confidences as a backend answered them, with the mark
// of the state they were computed against.
type Answer struct {
	Confs []PointConfidence
	Mark  Mark
}

// freshLocked reports whether an answer marked m at o is still exact under
// cfg: m is this store's at its current generation, and no grid cell within
// reach of o holds a record the answer did not see. Cells keep their records
// in index order, so a cell's last entry is its newest; the reach is one cell
// wider than r + R needs. Callers must hold the read lock.
func (s *Store) freshLocked(m Mark, o geo.Point, cfg FeatureConfig) bool {
	gen, n := m.At()
	if gen != s.gen || n > len(s.records) {
		return false
	}
	if n == len(s.records) {
		return true
	}
	reach := int(math.Ceil((cfg.R+s.cfg.R)/s.cell)) + 1
	c := s.cellOf(o)
	for dx := -reach; dx <= reach; dx++ {
		for dy := -reach; dy <= reach; dy++ {
			if cell := s.grid[[2]int{c[0] + dx, c[1] + dy}]; len(cell) > 0 && int(cell[len(cell)-1]) >= n {
				return false
			}
		}
	}
	return true
}

// Confidences answers every point under one read lock (see
// Backend.Confidences): point i takes prior[i] when freshLocked proves it
// still exact, and runs the kernel otherwise, into dst[i].Confs's storage.
// Every answer is the store's at one instant, so a vector built from them is
// bit-identical to Features at that instant. With dst reused it allocates
// nothing. It fails only on invalid arguments or a done ctx.
func (s *Store) Confidences(ctx context.Context, dst []Answer, pts []trajectory.Point, scans []wifi.Scan, cfg FeatureConfig, prior []Answer) (computed int, err error) {
	if err := CheckQuery(dst, pts, scans, cfg); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc := getScratch()
	defer putScratch(sc)
	mark := MarkAt(s.gen, len(s.records))
	for i, p := range pts {
		if i < len(prior) && s.freshLocked(prior[i].Mark, p.Pos, cfg) {
			dst[i] = prior[i]
			continue
		}
		computed++
		dst[i] = Answer{Confs: append(dst[i].Confs[:0], s.pointConfidencesLocked(sc, p.Pos, scans[i], cfg)...), Mark: mark}
	}
	return computed, nil
}
