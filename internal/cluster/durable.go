// Coordinator durability: the canonical record log and every assignment
// epoch spill to the coordinator's own wal.Lineage (WAL + snapshot). Records
// are journaled BEFORE they fan out to any node, so on a coordinator crash
// the journal is always a superset of what any node holds — restart
// rebuilds the log and the assignment from disk and resyncs node tails
// from it, with zero seed-corpus replay.
package cluster

import (
	"bytes"
	"fmt"
	"path/filepath"

	"trajforge/internal/binenc"
	"trajforge/internal/fsx"
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

// openDurability opens the coordinator's lineage when a Dir is configured
// and recovers the canonical log plus the last journaled assignment from it.
// Returns the recovered assignment, or nil when none was journaled (or
// durability is off).
func (s *Store) openDurability() (*Assignment, error) {
	if s.opts.Dir == "" {
		return nil, nil
	}
	fs := s.opts.FS
	if fs == nil {
		fs = fsx.OS
	}
	if err := fs.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: coordinator dir: %w", err)
	}
	log, err := wal.OpenLineage(filepath.Join(s.opts.Dir, coordWALName), filepath.Join(s.opts.Dir, coordSnapName),
		wal.Options{SyncInterval: s.opts.SyncInterval, FS: fs})
	if err != nil {
		return nil, err
	}
	var recovered *Assignment
	err = log.Recover(func(payload []byte) (err error) {
		recovered, err = s.loadCoordSnapshot(payload)
		return err
	}, func(typ byte, payload []byte) error {
		return s.replayCoordFrame(typ, payload, &recovered)
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	s.wlog = log
	return recovered, nil
}

func (s *Store) replayCoordFrame(typ byte, payload []byte, recovered **Assignment) error {
	r := binenc.NewReader(payload)
	switch typ {
	case coordFrameRecords:
		off, ends := readRecords(r)
		if r.Done() == nil {
			// Replay reuses payload's storage; the log keeps what it is given.
			s.appendEncodedLocked(bytes.Clone(payload), off, ends, nil)
		}
	case coordFrameAssign:
		a := decodeAssignment(r)
		if r.Done() == nil && (*recovered == nil || a.Epoch >= (*recovered).Epoch) {
			*recovered = &a
		}
	default:
		return fmt.Errorf("%w: unknown coordinator frame type %d", wal.ErrCorrupt, typ)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: coordinator frame type %d: %v", wal.ErrCorrupt, typ, err)
	}
	return nil
}

// appendEncodedLocked appends checked canonical records — back to back in buf
// from off, record i stopping at ends[i] — to the canonical log and files
// each under its tiles (owner + halo, shardstore's geometry). The log keeps
// buf's bytes, not a copy: the caller hands buf over and never writes to it
// again. each, when set, sees every record as it lands: its log index, its
// bytes and its tiles (valid for the call). Recovery passes nil, so stats
// counters stay untouched there. s.mu must be held.
func (s *Store) appendEncodedLocked(buf []byte, off int, ends []int, each func(idx int, enc []byte, tiles [][2]int)) {
	var tiles [][2]int
	for _, end := range ends {
		enc := buf[off:end:end]
		off = end
		idx := len(s.log)
		s.log = append(s.log, enc)
		tiles = s.cfg.TilesFor(recordPos(enc), tiles)
		for _, t := range tiles {
			s.tileIndex[t] = append(s.tileIndex[t], idx)
		}
		if each != nil {
			each(idx, enc, tiles)
		}
	}
}

// journalRecordsLocked journals one ingest batch — frame is its u32 count and
// the records' canonical bytes — ahead of any node fan-out. A journal failure
// is fatal to ingestion: walErr is set and Add fails closed from then on, so
// the coordinator never acks a record its own durable log did not capture.
// s.mu must be held.
func (s *Store) journalRecordsLocked(frame []byte) error {
	if s.wlog == nil {
		return nil
	}
	if s.walErr != nil {
		return s.walErr
	}
	if err := s.wlog.Append(coordFrameRecords, frame); err != nil {
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
	r := binenc.NewReader(payload)
	off, ends := readRecords(r)
	a := decodeAssignment(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	s.appendEncodedLocked(payload, off, ends, nil)
	return &a, nil
}

// Compact checkpoints the coordinator's lineage with the canonical log and
// the current assignment.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return nil
	}
	if s.walErr != nil {
		return s.walErr
	}
	size := 4 + 64
	for _, enc := range s.log {
		size += len(enc)
	}
	buf := binenc.AppendU32(make([]byte, 0, size), uint32(len(s.log)))
	for _, enc := range s.log {
		buf = append(buf, enc...)
	}
	buf, err := appendAssignment(buf, s.assign)
	if err != nil {
		return err
	}
	return s.wlog.Checkpoint(buf)
}
