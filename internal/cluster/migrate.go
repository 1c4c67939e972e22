// Live tile migration. The protocol:
//
//  1. Register: mark the tile migrating; from here on the coordinator
//     buffers new writes for the tile instead of shipping them.
//  2. Drain + freeze: flush the old owner's ordered ingest stream, then
//     freeze the tile (read-only on the old owner — queries keep working
//     through the whole handoff).
//  3. Fetch: read the tile's applied entry log off the old owner — the
//     WAL tail handoff — and top up any missing tail from the canonical
//     log (the old owner might have been behind).
//  4. Install: ship the entries to the new owner in bounded chunks under
//     kindInstall. A crash mid-install leaves a clean prefix; the per-tile
//     sequence gate makes the retried install idempotent.
//  5. Commit: bump the assignment epoch with the tile overridden to the
//     new owner, re-route the buffered writes, push the assignment to
//     every node (which clears freezes), journal a Drop on the old owner.
//
// Any failure before commit aborts: the epoch still bumps (epoch bumps
// are how freezes clear and how every attempt stays totally ordered), but
// ownership is unchanged and the buffered writes flush to the old owner.
// Either way the tile ends owned by exactly one node at the new epoch —
// queries fence on (epoch, owner), so no interleaving of crashes and
// retries can produce split-brain reads.
package cluster

import (
	"errors"
	"fmt"
	"time"
)

// ErrMigrationInFlight reports a second migration while one is running.
var ErrMigrationInFlight = errors.New("cluster: migration already in flight")

// Migrate moves one tile to a new owner, live. Concurrent ingestion and
// queries keep running: writes buffer at the coordinator, reads are served
// by the frozen old owner until the commit flips ownership atomically with
// the epoch bump.
func (s *Store) Migrate(tile [2]int, to string) error {
	s.mu.Lock()
	if _, ok := s.nodes[to]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %q", to)
	}
	if len(s.migrating) > 0 {
		s.mu.Unlock()
		return ErrMigrationInFlight
	}
	if s.repairing.Load() {
		s.mu.Unlock()
		return ErrRepairInFlight
	}
	from := s.assign.Owner(tile)
	epoch := s.assign.Epoch
	if from == to {
		s.mu.Unlock()
		return nil
	}
	s.migrating[tile] = &migration{to: to}
	s.mu.Unlock()

	if err := s.runMigration(tile, from, to, epoch); err != nil {
		s.abortMigration(tile)
		return err
	}
	return nil
}

func (s *Store) runMigration(tile [2]int, from, to string, epoch uint64) error {
	fromNC, toNC := s.nodes[from], s.nodes[to]
	// Both ends must be healthy before the handoff: the old owner is about
	// to be the only holder of a frozen tile, the new owner is about to
	// accept its entire history.
	if fromNC.isUnsynced() {
		if err := s.Resync(from); err != nil {
			return fmt.Errorf("cluster: migrate %v: resync %s: %w", tile, from, err)
		}
	}
	if toNC.isUnsynced() {
		if err := s.Resync(to); err != nil {
			return fmt.Errorf("cluster: migrate %v: resync %s: %w", tile, to, err)
		}
	}

	// Drain, then freeze. The freeze rides the ordered ingest stream, so
	// every previously shipped batch lands before the tile goes read-only.
	if err := fromNC.flush(s); err != nil {
		return fmt.Errorf("cluster: migrate %v: drain %s: %w", tile, from, err)
	}
	fromNC.sendMu.Lock()
	ack, err := fromNC.ackCallLocked(&FreezeReq{Epoch: epoch, Tile: tile})
	fromNC.sendMu.Unlock()
	if err != nil {
		fromNC.markUnsynced(err)
		return fmt.Errorf("cluster: migrate %v: freeze on %s: %w", tile, from, err)
	}
	if ack.Status != statusOK {
		return fmt.Errorf("cluster: migrate %v: freeze on %s: status %d %s", tile, from, ack.Status, ack.Msg)
	}

	// Fetch the tile's applied log (the WAL-tail handoff). Failure here is
	// survivable: the canonical log can rebuild the tile alone.
	var handoff []Entry
	if resp, err := fromNC.call(&FetchTileReq{Epoch: epoch, Tile: tile}, time.Time{}); err == nil {
		if ts, ok := resp.(*TileState); ok && ts.Status == statusOK {
			handoff = ts.Entries
		}
	}
	handoff = s.topUpHandoff(tile, handoff)

	// Install on the new owner in bounded chunks.
	if err := s.installHandoff(toNC, epoch, handoff); err != nil {
		return fmt.Errorf("cluster: migrate %v: install on %s: %w", tile, to, err)
	}

	// With replication on, the post-commit follower may be a node holding
	// nothing for this tile (the move displaces the rendezvous follower).
	// Install the same handoff there ahead of the commit — same seqs, so
	// the install is idempotent and either replica serves identical bits
	// from the first post-commit query. An old owner staying on as follower
	// needs nothing: it already holds everything up to the freeze. Follower
	// install failure is survivable (Resync heals it) and must not abort an
	// otherwise-complete handoff.
	s.mu.RLock()
	prospective := migratedAssign(s.assign, tile, to)
	oldFollower := s.assign.Follower(tile)
	s.mu.RUnlock()
	if nf := prospective.Follower(tile); nf != "" && nf != to && nf != from {
		if fnc := s.nodes[nf]; fnc != nil {
			if err := s.installHandoff(fnc, epoch, handoff); err != nil {
				fnc.markUnsynced(fmt.Errorf("cluster: migrate %v: follower install on %s: %w", tile, nf, err))
			}
		}
	}

	// Commit: epoch bump + override + buffered-write re-route, atomically
	// under the coordinator lock, journaled before any node hears of it.
	s.mu.Lock()
	next := migratedAssign(s.assign, tile, to)
	s.assign = next
	s.journalAssignLocked(next)
	mig := s.migrating[tile]
	delete(s.migrating, tile)
	var flushTargets []*nodeClient
	if mig != nil && len(mig.buffer) > 0 {
		toNC.enqueue(&AddReq{Epoch: next.Epoch, Entries: mig.buffer})
		flushTargets = append(flushTargets, toNC)
		if nf := next.Follower(tile); nf != "" && nf != to {
			if fnc := s.nodes[nf]; fnc != nil {
				fnc.enqueue(&AddReq{Epoch: next.Epoch, Entries: mig.buffer})
				flushTargets = append(flushTargets, fnc)
			}
		}
	}
	s.mu.Unlock()
	s.migrations.Add(1)

	// Publish the new world, retire copies on nodes that no longer hold a
	// replica, deliver buffered writes.
	s.pushAssignment()
	for _, id := range []string{from, oldFollower} {
		if id == "" || next.replicaOf(tile, id) {
			continue
		}
		nc := s.nodes[id]
		if nc == nil {
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
	for _, nc := range flushTargets {
		if err := nc.flush(s); err != nil {
			nc.markUnsynced(err)
		}
	}
	return nil
}

// installHandoff ships a tile's entry log to one node in bounded chunks
// under kindInstall. A crash mid-install leaves a clean prefix; the
// per-tile sequence gate makes a retried install idempotent.
func (s *Store) installHandoff(nc *nodeClient, epoch uint64, handoff []Entry) error {
	nc.sendMu.Lock()
	defer nc.sendMu.Unlock()
	for off := 0; off < len(handoff); off += addChunk {
		end := off + addChunk
		if end > len(handoff) {
			end = len(handoff)
		}
		ack, err := nc.ackCallLocked(&InstallReq{Epoch: epoch, Entries: handoff[off:end]})
		if err != nil {
			nc.markUnsynced(err)
			return err
		}
		if ack.Status != statusOK {
			return fmt.Errorf("status %d %s", ack.Status, ack.Msg)
		}
	}
	return nil
}

// migratedAssign computes the assignment after committing a migration of
// tile to `to`: epoch bump, ownership override (trimmed when rendezvous
// already agrees), and follower-override cleanup so a pinned follower can
// never alias the new owner.
func migratedAssign(a Assignment, tile [2]int, to string) Assignment {
	next := a.Clone()
	next.Epoch++
	next.Overrides[tile] = to
	if ownerWithout(next, tile) == to {
		// The override is redundant under rendezvous; keep the map minimal.
		delete(next.Overrides, tile)
	}
	if next.FollowerOverrides[tile] == to {
		delete(next.FollowerOverrides, tile)
	}
	return next
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

// topUpHandoff extends the fetched entry log with any canonical tail the
// old owner had not applied, keeping seq order.
func (s *Store) topUpHandoff(tile [2]int, handoff []Entry) []Entry {
	var have uint64
	if n := len(handoff); n > 0 {
		have = handoff[n-1].Seq
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, idx := range s.tileIndex[tile] {
		seq := uint64(idx) + 1
		if seq <= have {
			continue
		}
		handoff = append(handoff, Entry{Tile: tile, Seq: seq, enc: s.log[idx]})
	}
	return handoff
}

// abortMigration rolls a failed handoff back: ownership is unchanged, but
// the epoch still bumps — the assignment push that follows clears the
// freeze on the old owner — and buffered writes flush to the old owner.
func (s *Store) abortMigration(tile [2]int) {
	s.mu.Lock()
	mig := s.migrating[tile]
	delete(s.migrating, tile)
	next := s.assign.Clone()
	next.Epoch++
	s.assign = next
	s.journalAssignLocked(next)
	owner := next.Owner(tile)
	var targets []*nodeClient
	if mig != nil && len(mig.buffer) > 0 {
		if nc := s.nodes[owner]; nc != nil {
			nc.enqueue(&AddReq{Epoch: next.Epoch, Entries: mig.buffer})
			targets = append(targets, nc)
		}
		if f := next.Follower(tile); f != "" && f != owner {
			if nc := s.nodes[f]; nc != nil {
				nc.enqueue(&AddReq{Epoch: next.Epoch, Entries: mig.buffer})
				targets = append(targets, nc)
			}
		}
	}
	s.mu.Unlock()
	s.aborted.Add(1)

	s.pushAssignment()
	for _, nc := range targets {
		if err := nc.flush(s); err != nil {
			nc.markUnsynced(err)
		}
	}
}
