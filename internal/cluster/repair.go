// Redundancy repair and automatic rebalancing. Rereplicate is the
// dead-node path: every tile whose primary or follower lived on the dead
// node gets a replacement pinned through overrides in one epoch bump, and
// the canonical log replays the data onto the new holders. Rebalance is
// the load path: one bounded migration of the hottest tile off the
// most-loaded node. Both are single-flight with migrations — they reuse
// the same epoch-fencing, so no interleaving with queries or ingest can
// produce split-brain reads.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// ErrRepairInFlight reports a second re-replication while one is running.
var ErrRepairInFlight = errors.New("cluster: re-replication already in flight")

// Rereplicate restores redundancy after a node death: tiles the dead node
// owned promote their follower to primary, tiles it followed get a fresh
// follower, the epoch bumps once (journaled), and every live node resyncs
// so the new holders receive their data from the canonical log. The dead
// node stays a member — if it returns, a later Resync reconciles it; while
// it is down, overrides keep every replica on live nodes.
func (s *Store) Rereplicate(dead string) error {
	if _, ok := s.nodes[dead]; !ok {
		return fmt.Errorf("cluster: unknown node %q", dead)
	}
	if !s.repairing.CompareAndSwap(false, true) {
		return ErrRepairInFlight
	}
	defer s.repairing.Store(false)

	s.mu.Lock()
	if len(s.migrating) > 0 {
		s.mu.Unlock()
		return ErrMigrationInFlight
	}
	next := s.assign.Clone()
	if next.FollowerOverrides == nil {
		next.FollowerOverrides = make(map[[2]int]string)
	}
	changed := false
	for t, idxs := range s.tileIndex {
		if len(idxs) == 0 {
			continue
		}
		owner := next.Owner(t)
		follower := next.Follower(t)
		switch {
		case owner == dead:
			if follower == "" || follower == dead {
				// No second replica to promote: the tile stays pinned to the
				// dead node and health reports it until the node returns.
				continue
			}
			// Promote the follower — it holds the complete replica, so the
			// promotion is data-free — and place a fresh follower.
			next.Overrides[t] = follower
			if ownerWithout(next, t) == follower {
				delete(next.Overrides, t)
			}
			delete(next.FollowerOverrides, t)
			if nf := bestReplicaExcluding(next, t, dead); nf != "" {
				if followerWithout(next, t) != nf {
					next.FollowerOverrides[t] = nf
				}
			}
			changed = true
		case next.Replicate && follower == dead:
			if nf := bestReplicaExcluding(next, t, dead); nf != "" {
				if followerWithout(next, t) == nf {
					delete(next.FollowerOverrides, t)
				} else {
					next.FollowerOverrides[t] = nf
				}
				changed = true
			}
		}
	}
	if !changed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if next.Epoch, err = nextEpoch(next.Epoch); err != nil {
		s.mu.Unlock()
		return err
	}
	s.assign = next
	s.journalAssignLocked(next)
	s.mu.Unlock()

	// The dead node is presumed unreachable: mark it so reads fail over
	// immediately instead of waiting out a dial timeout.
	if nc := s.nodes[dead]; nc != nil {
		nc.markUnsynced(fmt.Errorf("cluster: node %s declared dead for re-replication", dead))
	}
	s.pushAssignment()

	// Replay data onto the new holders. Resync reads each node's per-tile
	// seq marks and ships only the missing tails, so this is proportional
	// to what actually moved.
	var firstErr error
	for _, nc := range s.sortedNodes() {
		if nc.id == dead {
			continue
		}
		if err := s.Resync(nc.id); err != nil {
			nc.markUnsynced(err)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: rereplicate: resync %s: %w", nc.id, err)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	s.repairs.Add(1)
	return nil
}

// bestReplicaExcluding picks the highest-scoring member for tile t that is
// neither the owner nor any excluded id — the same rendezvous order every
// process computes.
func bestReplicaExcluding(a Assignment, t [2]int, exclude string) string {
	owner := a.Owner(t)
	best, bestScore := "", uint64(0)
	for _, id := range a.Members {
		if id == owner || id == exclude {
			continue
		}
		sc := rendezvousScore(id, t)
		if best == "" || sc > bestScore || (sc == bestScore && id > best) {
			best, bestScore = id, sc
		}
	}
	return best
}

// followerWithout computes the rendezvous follower of tile ignoring
// follower overrides.
func followerWithout(a Assignment, tile [2]int) string {
	saved, had := a.FollowerOverrides[tile]
	delete(a.FollowerOverrides, tile)
	f := a.Follower(tile)
	if had {
		a.FollowerOverrides[tile] = saved
	}
	return f
}

// Rebalance performs one bounded balancing step: migrate the hottest tile
// off the most-loaded node onto the least-loaded one, but only when the
// move strictly narrows the spread (so repeated calls converge instead of
// ping-ponging a tile between two nodes). Returns whether a tile moved.
func (s *Store) Rebalance() (bool, error) {
	type hot struct {
		t [2]int
		n int
	}
	s.mu.RLock()
	if len(s.migrating) > 0 {
		s.mu.RUnlock()
		return false, ErrMigrationInFlight
	}
	load := make(map[string]int, len(s.assign.Members))
	for _, id := range s.assign.Members {
		load[id] = 0
	}
	hottest := make(map[string]hot, len(s.assign.Members))
	for t, idxs := range s.tileIndex {
		if len(idxs) == 0 {
			continue
		}
		owner := s.assign.Owner(t)
		load[owner] += len(idxs)
		if h, ok := hottest[owner]; !ok || len(idxs) > h.n || (len(idxs) == h.n && tileLess(t, h.t)) {
			hottest[owner] = hot{t: t, n: len(idxs)}
		}
	}
	members := append([]string(nil), s.assign.Members...)
	s.mu.RUnlock()

	// Deterministic extremes: ties break toward the lexically smaller id.
	sort.Strings(members)
	var most, least string
	for _, id := range members {
		if nc := s.nodes[id]; nc != nil && nc.isUnsynced() {
			// An unreachable node is neither a source (can't drain it) nor a
			// target (would strand the tile).
			continue
		}
		if most == "" || load[id] > load[most] {
			most = id
		}
		if least == "" || load[id] < load[least] {
			least = id
		}
	}
	if most == "" || least == "" || most == least {
		return false, nil
	}
	h, ok := hottest[most]
	if !ok || h.n == 0 {
		return false, nil
	}
	if load[most]-load[least] <= h.n {
		return false, nil
	}
	if err := s.Migrate(h.t, least); err != nil {
		return false, err
	}
	s.rebalances.Add(1)
	return true, nil
}
