package wal

import (
	"errors"
	"fmt"
)

// Lineage is one durable history: a log and the snapshot file that compacts
// it, on the log's filesystem. It owns the generation protocol, so the
// provider's persistence, a shard node and the cluster coordinator recover
// and checkpoint through the same code. Appends, Sync, Stats and Close are
// the embedded log's.
//
// Recovery, by snapshot generation S (0 when no snapshot exists) against
// log generation L:
//
//	S > L            the crash fell between snapshot rename and log reset:
//	                 load the snapshot, discard the stale log (Reset to S)
//	S < L and L > 1  the log was compacted at least once, so a snapshot of
//	                 its generation must exist: refuse with ErrCorrupt
//	otherwise        load the snapshot (if any), replay the log on top
type Lineage struct {
	*Log
	snapPath string
}

// OpenLineage opens (or creates) the log at logPath, recovering a torn
// tail, and pairs it with the snapshot at snapPath on opts.FS.
func OpenLineage(logPath, snapPath string, opts Options) (*Lineage, error) {
	log, err := Open(logPath, opts)
	if err != nil {
		return nil, err
	}
	return &Lineage{Log: log, snapPath: snapPath}, nil
}

// Recover rebuilds the owner's state: loadSnapshot receives the snapshot
// payload when one exists, then replayFrame receives every log frame
// appended since, in order. A payload loadSnapshot rejects is ErrCorrupt;
// replayFrame's errors are returned as they are.
func (l *Lineage) Recover(loadSnapshot func(payload []byte) error, replayFrame func(typ byte, payload []byte) error) error {
	snapGen, payload, err := ReadSnapshotFS(l.fs, l.snapPath)
	switch {
	case errors.Is(err, ErrNoSnapshot):
		snapGen = 0
	case err != nil:
		return err
	default:
		if err := loadSnapshot(payload); err != nil {
			return fmt.Errorf("%w: snapshot payload in %s: %v", ErrCorrupt, l.snapPath, err)
		}
	}
	walGen := l.Generation()
	switch {
	case snapGen > walGen:
		return l.Reset(snapGen)
	case snapGen < walGen && walGen > 1:
		return fmt.Errorf("%w: snapshot generation %d behind log generation %d at %s",
			ErrCorrupt, snapGen, walGen, l.snapPath)
	default:
		return l.Replay(replayFrame)
	}
}

// Checkpoint compacts the lineage: payload becomes the snapshot of the next
// generation, durably renamed into place, and only then is the log reset to
// that generation. A crash between the two leaves the S > L case above; a
// failure of either step is returned and leaves the previous pair (or the
// new snapshot over the old log) recoverable. The caller must be the log's
// only writer, and payload must account for every frame appended so far.
func (l *Lineage) Checkpoint(payload []byte) error {
	gen := l.Generation() + 1
	if err := WriteSnapshotFS(l.fs, l.snapPath, gen, payload); err != nil {
		return err
	}
	return l.Reset(gen)
}
