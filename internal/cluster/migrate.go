// Live tile migration: a pending assignment served from the canonical log.
// The protocol:
//
//  1. Register: under the coordinator lock, record the assignment the move
//     commits as pending. From here on the tile's entries go to its
//     replicas under both the current and the pending assignment (one rule,
//     holdersLocked, shared by ingest and Resync), and every node new to the
//     tile gets its history from the canonical log, queued on its ordered
//     ingest outbox in addChunk chunks ahead of any later write — the path
//     and the order every batch takes, so the per-tile seq gate sees the
//     entries in order.
//  2. Catch up: both ends must be synced (a resync first; failure aborts),
//     then the queued history is delivered. The new owner must take all of
//     it or the move aborts; a new follower that misses it is left unsynced
//     for Resync to heal. Queries keep going to the current replicas, which
//     keep receiving every write.
//  3. Commit: bump the epoch with the tile overridden to the new owner,
//     journaled before any node hears of it; push the assignment; then
//     flush the outbox of each node that no longer holds the tile before
//     sending it a Drop, so no entry queued before the commit can re-create
//     the tile on that node after the drop.
//
// Any failure before commit aborts: the migration is un-registered and the
// epoch still bumps, so every attempt ends in one and attempts stay totally
// ordered. Nothing is flushed and no partial copy is dropped: a partial copy
// on the would-be holder is a canonical prefix, which a later attempt extends
// through the seq gate or a Resync drops. Queries fence on (epoch, replica),
// so no interleaving of crashes and retries can produce split-brain reads.
package cluster

import (
	"errors"
	"fmt"
)

// ErrMigrationInFlight reports a second migration while one is running.
var ErrMigrationInFlight = errors.New("cluster: migration already in flight")

// Migrate moves one tile to a new owner, live. Concurrent ingestion and
// queries keep running: the current replicas serve the tile and receive
// every write until the commit flips ownership atomically with the epoch
// bump.
func (s *Store) Migrate(tile [2]int, to string) error {
	from, fresh, err := s.registerMigration(tile, to)
	if err != nil || from == to {
		return err
	}
	if err := s.runMigration(tile, from, to, fresh); err != nil {
		return errors.Join(err, s.abortMigration(tile))
	}
	return nil
}

// registerMigration makes the move of tile to `to` pending and queues the
// tile's canonical history on every node the move makes a replica of it. It
// returns the tile's current owner (from == to: nothing to move) and those
// new holders.
func (s *Store) registerMigration(tile [2]int, to string) (from string, fresh []string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[to]; !ok {
		return "", nil, fmt.Errorf("cluster: unknown node %q", to)
	}
	if len(s.migrating) > 0 {
		return "", nil, ErrMigrationInFlight
	}
	if s.repairing.Load() {
		return "", nil, ErrRepairInFlight
	}
	from = s.assign.Owner(tile)
	if from == to {
		return from, nil, nil
	}
	next, err := migratedAssign(s.assign, tile, to)
	if err != nil {
		return "", nil, err
	}
	s.migrating[tile] = next
	idxs := s.tileIndex[tile]
	for _, id := range next.appendReplicas(nil, tile) {
		if s.assign.replicaOf(tile, id) {
			continue
		}
		fresh = append(fresh, id)
		for off := 0; off < len(idxs); off += addChunk {
			chunk := idxs[off:min(off+addChunk, len(idxs))]
			entries := make([]Entry, len(chunk))
			for k, idx := range chunk {
				entries[k] = Entry{Tile: tile, Seq: uint64(idx) + 1, enc: s.log[idx]}
			}
			s.nodes[id].enqueue(&AddReq{Epoch: s.assign.Epoch, Entries: entries})
		}
	}
	return from, fresh, nil
}

func (s *Store) runMigration(tile [2]int, from, to string, fresh []string) error {
	// Both ends must be healthy before the move: the old owner keeps serving
	// the tile until the commit, the new owner is about to take its history.
	for _, id := range []string{from, to} {
		if s.nodes[id].isUnsynced() {
			if err := s.Resync(id); err != nil {
				return fmt.Errorf("cluster: migrate %v: resync %s: %w", tile, id, err)
			}
		}
	}
	for _, id := range fresh {
		nc := s.nodes[id]
		if err := nc.flush(s); err != nil {
			nc.markUnsynced(err)
			if id == to {
				return fmt.Errorf("cluster: migrate %v: install on %s: %w", tile, to, err)
			}
		}
	}

	// Commit the pending assignment (epoch bump + override), journaled before
	// any node hears of it.
	s.mu.Lock()
	prev, next := s.assign, s.migrating[tile]
	s.assign = next
	s.journalAssignLocked(next)
	delete(s.migrating, tile)
	s.mu.Unlock()
	s.migrations.Add(1)

	// Publish the new world, then retire the copies on nodes that no longer
	// hold a replica — each after its outbox has drained.
	s.pushAssignment()
	for _, id := range prev.appendReplicas(nil, tile) {
		if next.replicaOf(tile, id) {
			continue
		}
		nc := s.nodes[id]
		if err := nc.flush(s); err != nil {
			nc.markUnsynced(err)
			continue
		}
		nc.sendMu.Lock()
		ack, err := nc.ackCallLocked(&DropReq{Epoch: next.Epoch, Tile: tile})
		nc.sendMu.Unlock()
		if err != nil {
			nc.markUnsynced(err)
		} else if ack.Status != statusOK {
			nc.markUnsynced(fmt.Errorf("cluster: drop %v on %s: status %d %s", tile, id, ack.Status, ack.Msg))
		}
	}
	return nil
}

// migratedAssign computes the assignment after committing a migration of
// tile to `to`: epoch bump, ownership override (trimmed when rendezvous
// already agrees), and follower-override cleanup so a pinned follower can
// never alias the new owner.
func migratedAssign(a Assignment, tile [2]int, to string) (Assignment, error) {
	next := a.Clone()
	var err error
	if next.Epoch, err = nextEpoch(a.Epoch); err != nil {
		return Assignment{}, err
	}
	next.Overrides[tile] = to
	if ownerWithout(next, tile) == to {
		// The override is redundant under rendezvous; keep the map minimal.
		delete(next.Overrides, tile)
	}
	if next.FollowerOverrides[tile] == to {
		delete(next.FollowerOverrides, tile)
	}
	return next, nil
}

// ownerWithout computes the rendezvous owner of tile ignoring overrides.
func ownerWithout(a Assignment, tile [2]int) string {
	saved, had := a.Overrides[tile]
	delete(a.Overrides, tile)
	owner := a.Owner(tile)
	if had {
		a.Overrides[tile] = saved
	}
	return owner
}

// abortMigration rolls a failed move back: the migration is un-registered
// and ownership is unchanged, but the epoch still bumps — unless it is
// exhausted, which is the error.
func (s *Store) abortMigration(tile [2]int) error {
	s.mu.Lock()
	delete(s.migrating, tile)
	next := s.assign.Clone()
	var err error
	if next.Epoch, err = nextEpoch(next.Epoch); err != nil {
		s.mu.Unlock()
		return err
	}
	s.assign = next
	s.journalAssignLocked(next)
	s.mu.Unlock()
	s.aborted.Add(1)
	s.pushAssignment()
	return nil
}
