// Tile→node assignment. The coordinator owns a versioned Assignment: a
// member list, an epoch that increments on every ownership change, and an
// override table for tiles that migration has moved off their default
// owner. Default ownership is rendezvous (highest-random-weight) hashing,
// so adding or removing a node reshuffles only the tiles that must move,
// and every party — coordinator or node — computes the same owner from the
// same assignment without coordination.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEpochExhausted reports an epoch bump past the last epoch: the fence
// only moves forward, and an epoch that wrapped to 0 would sit below every
// node's. math.MaxUint64 is never issued, and a node refuses an assignment
// carrying it. A node pushed to the last epoch still stops the cluster, but
// with this error, not a silent wrap: the transport does not authenticate
// who pushes.
var ErrEpochExhausted = errors.New("cluster: assignment epoch exhausted")

// nextEpoch is the epoch after e, or ErrEpochExhausted when that would be
// math.MaxUint64 or wrap.
func nextEpoch(e uint64) (uint64, error) {
	if e >= math.MaxUint64-1 {
		return 0, fmt.Errorf("%w: no epoch follows %d", ErrEpochExhausted, e)
	}
	return e + 1, nil
}

// rendezvousScore ranks node id for tile t with FNV-1a over the tile
// coordinates and the id. The hash must be identical in every process —
// coordinator and nodes each compute Owner() from the shared assignment,
// and a process-seeded hash would give two processes two owners for one
// tile — so a fixed algorithm, not a seeded one, is load-bearing here.
func rendezvousScore(id string, t [2]int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(int64(t[0])))
	mix(uint64(int64(t[1])))
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// Assignment is one immutable version of the tile→node map.
type Assignment struct {
	// Epoch increments on every change. Nodes fence requests on it.
	Epoch uint64
	// Members are the node ids participating in rendezvous hashing,
	// kept sorted.
	Members []string
	// Overrides pins specific tiles to a node regardless of the hash —
	// the record of completed migrations.
	Overrides map[[2]int]string
	// Replicate turns on primary+follower placement: every tile gains a
	// second replica on its Follower node, dual-written by the
	// coordinator, and reads may fail over to it.
	Replicate bool
	// FollowerOverrides pins specific tiles' follower replicas to a node
	// regardless of the hash — the record of re-replications after a node
	// death or a migration that displaced the default follower.
	FollowerOverrides map[[2]int]string
}

// Owner returns the node responsible for tile t, or "" when the
// assignment has no members.
func (a Assignment) Owner(t [2]int) string {
	if id, ok := a.Overrides[t]; ok {
		return id
	}
	best, bestScore := "", uint64(0)
	for _, id := range a.Members {
		s := rendezvousScore(id, t)
		// Ties break toward the lexically larger id so the winner is
		// deterministic regardless of member order.
		if best == "" || s > bestScore || (s == bestScore && id > best) {
			best, bestScore = id, s
		}
	}
	return best
}

// Follower returns the node holding tile t's second replica, or "" when
// replication is off or the assignment has fewer than two members. The
// default follower is the highest-scoring member that is not the owner —
// the same rendezvous hash every process computes, so the coordinator and
// every node agree on the follower without coordination.
func (a Assignment) Follower(t [2]int) string {
	if !a.Replicate || len(a.Members) < 2 {
		return ""
	}
	owner := a.Owner(t)
	if id, ok := a.FollowerOverrides[t]; ok && id != owner {
		return id
	}
	best, bestScore := "", uint64(0)
	for _, id := range a.Members {
		if id == owner {
			continue
		}
		s := rendezvousScore(id, t)
		if best == "" || s > bestScore || (s == bestScore && id > best) {
			best, bestScore = id, s
		}
	}
	return best
}

// Clone returns a deep copy safe to mutate into the next version.
func (a Assignment) Clone() Assignment {
	c := Assignment{
		Epoch:     a.Epoch,
		Members:   append([]string(nil), a.Members...),
		Overrides: make(map[[2]int]string, len(a.Overrides)),
		Replicate: a.Replicate,
	}
	for t, id := range a.Overrides {
		c.Overrides[t] = id
	}
	if a.FollowerOverrides != nil {
		c.FollowerOverrides = make(map[[2]int]string, len(a.FollowerOverrides))
		for t, id := range a.FollowerOverrides {
			c.FollowerOverrides[t] = id
		}
	}
	return c
}

// NewAssignment builds the epoch-1 assignment over the given members.
func NewAssignment(members []string) (Assignment, error) {
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			return Assignment{}, fmt.Errorf("cluster: duplicate member %q", ms[i])
		}
	}
	for _, id := range ms {
		if id == "" {
			return Assignment{}, fmt.Errorf("cluster: empty member id")
		}
	}
	return Assignment{Epoch: 1, Members: ms, Overrides: map[[2]int]string{}}, nil
}

// replicaOf reports whether id holds a replica (primary or follower) of
// tile t under this assignment.
func (a Assignment) replicaOf(t [2]int, id string) bool {
	return a.Owner(t) == id || (a.Replicate && a.Follower(t) == id)
}

// appendReplicas appends tile t's replicas under this assignment — primary,
// then follower — skipping any dst already holds.
func (a Assignment) appendReplicas(dst []string, t [2]int) []string {
	for _, id := range [2]string{a.Owner(t), a.Follower(t)} {
		if id != "" && !slices.Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// hasMember reports whether id participates in the assignment.
func (a Assignment) hasMember(id string) bool {
	for _, m := range a.Members {
		if m == id {
			return true
		}
	}
	return false
}
