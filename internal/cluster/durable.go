// Coordinator durability: the canonical record log and every assignment
// epoch spill to the coordinator's own WAL + snapshot lineage (the same
// two-phase generation protocol node and server persistence use). Records
// are journaled BEFORE they fan out to any node, so on a coordinator crash
// the journal is always a superset of what any node holds — restart
// rebuilds the log and the assignment from disk and resyncs node tails
// from it, with zero seed-corpus replay.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"

	"trajforge/internal/fsx"
	"trajforge/internal/rssimap"
	"trajforge/internal/wal"
)

const (
	coordWALName  = "coord.wal"
	coordSnapName = "coord.snap"
)

// Coordinator WAL frame types.
const (
	coordFrameRecords byte = 1 // one ingest batch: u32 count + records
	coordFrameAssign  byte = 2 // one installed assignment (codec assignment)
)

func (s *Store) coordWALPath() string  { return filepath.Join(s.opts.Dir, coordWALName) }
func (s *Store) coordSnapPath() string { return filepath.Join(s.opts.Dir, coordSnapName) }

// openDurability wires the filesystem seam and, when a Dir is configured,
// opens the coordinator WAL and recovers the canonical log plus the last
// journaled assignment from snapshot + log replay. Returns the recovered
// assignment, or nil when none was journaled (or durability is off).
func (s *Store) openDurability() (*Assignment, error) {
	s.fs = s.opts.FS
	if s.fs == nil {
		s.fs = fsx.OS
	}
	if s.opts.Dir == "" {
		return nil, nil
	}
	if err := s.fs.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: coordinator dir: %w", err)
	}
	log, err := wal.Open(s.coordWALPath(), wal.Options{SyncInterval: s.opts.SyncInterval, FS: s.fs})
	if err != nil {
		return nil, err
	}
	s.wlog = log

	var recovered *Assignment
	snapGen, payload, err := wal.ReadSnapshotFS(s.fs, s.coordSnapPath())
	switch {
	case errors.Is(err, wal.ErrNoSnapshot):
		snapGen = 0
	case err != nil:
		log.Close()
		return nil, err
	default:
		a, err := s.loadCoordSnapshot(payload)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("%w: coordinator snapshot: %v", wal.ErrCorrupt, err)
		}
		recovered = a
	}
	walGen := s.wlog.Generation()
	switch {
	case snapGen > walGen:
		// Crash between snapshot rename and log reset: the snapshot already
		// covers every frame of the stale log.
		if err := s.wlog.Reset(snapGen); err != nil {
			log.Close()
			return nil, err
		}
	case snapGen < walGen && walGen > 1:
		log.Close()
		return nil, fmt.Errorf("%w: coordinator snapshot generation %d behind log generation %d in %s",
			wal.ErrCorrupt, snapGen, walGen, s.opts.Dir)
	default:
		if err := s.wlog.Replay(func(typ byte, payload []byte) error {
			return s.replayCoordFrame(typ, payload, &recovered)
		}); err != nil {
			log.Close()
			return nil, err
		}
	}
	return recovered, nil
}

func (s *Store) replayCoordFrame(typ byte, payload []byte, recovered **Assignment) error {
	r := &reader{data: payload}
	switch typ {
	case coordFrameRecords:
		n, err := r.u32()
		if err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		recs := make([]rssimap.Record, 0, n)
		for i := 0; i < int(n); i++ {
			rec, err := decodeRecord(r)
			if err != nil {
				return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
			}
			recs = append(recs, rec)
		}
		if err := r.done(); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		s.appendToLogLocked(recs)
		return nil
	case coordFrameAssign:
		a, err := decodeAssignment(r)
		if err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		if err := r.done(); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		if *recovered == nil || a.Epoch >= (*recovered).Epoch {
			*recovered = &a
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown coordinator frame type %d", wal.ErrCorrupt, typ)
	}
}

// appendToLogLocked appends recovered records to the canonical log and
// rebuilds their tile-index rows (owner tile + halo, the same geometry the
// ingest path uses). Recovery only — stats counters stay untouched.
func (s *Store) appendToLogLocked(recs []rssimap.Record) {
	var tiles [][2]int
	for _, rec := range recs {
		idx := len(s.log)
		s.log = append(s.log, rec)
		tiles = s.cfg.TilesFor(rec.Pos, tiles)
		for _, t := range tiles {
			s.tileIndex[t] = append(s.tileIndex[t], idx)
		}
	}
}

// journalRecordsLocked journals one ingest batch ahead of any node fan-out.
// A journal failure is fatal to ingestion: walErr is set and Add fails
// closed from then on, so the coordinator never acks a record its own
// durable log did not capture. s.mu must be held.
func (s *Store) journalRecordsLocked(encs [][]byte) error {
	if s.wlog == nil {
		return nil
	}
	if s.walErr != nil {
		return s.walErr
	}
	buf := appendU32(nil, uint32(len(encs)))
	for _, enc := range encs {
		buf = append(buf, enc...)
	}
	if err := s.wlog.Append(coordFrameRecords, buf); err != nil {
		s.walErr = fmt.Errorf("cluster: coordinator wal failed: %w", err)
		return s.walErr
	}
	return nil
}

// journalAssignLocked journals an installed assignment. Failures degrade
// the coordinator (walErr) but do not block the in-memory epoch bump: the
// fencing guarantee lives on the nodes, and a restart fences above every
// node epoch anyway. s.mu must be held.
func (s *Store) journalAssignLocked(a Assignment) {
	if s.wlog == nil || s.walErr != nil {
		return
	}
	buf, err := appendAssignment(nil, a)
	if err != nil {
		s.walErr = fmt.Errorf("cluster: coordinator wal failed: %w", err)
		return
	}
	if err := s.wlog.Append(coordFrameAssign, buf); err != nil {
		s.walErr = fmt.Errorf("cluster: coordinator wal failed: %w", err)
	}
}

// loadCoordSnapshot decodes a coordinator checkpoint: the canonical record
// log, then the assignment current when it was taken.
func (s *Store) loadCoordSnapshot(payload []byte) (*Assignment, error) {
	r := &reader{data: payload}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	recs := make([]rssimap.Record, 0, n)
	for i := 0; i < int(n); i++ {
		rec, err := decodeRecord(r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	a, err := decodeAssignment(r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	s.appendToLogLocked(recs)
	return &a, nil
}

// Compact checkpoints the coordinator: snapshot the canonical log and the
// current assignment, durably rename it into place, then reset the WAL to
// the next generation — two-phase, crash-safe at every point between.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return nil
	}
	if s.walErr != nil {
		return s.walErr
	}
	buf := appendU32(nil, uint32(len(s.log)))
	var err error
	for _, rec := range s.log {
		if buf, err = appendRecord(buf, rec); err != nil {
			return err
		}
	}
	if buf, err = appendAssignment(buf, s.assign); err != nil {
		return err
	}
	gen := s.wlog.Generation() + 1
	if err := wal.WriteSnapshotFS(s.fs, s.coordSnapPath(), gen, buf); err != nil {
		return err
	}
	return s.wlog.Reset(gen)
}
