package chaos

// The coordinator-crash scenario on the cluster fixture. The coordinator is
// the cluster's remaining single point of durability: it owns the canonical
// record log. This scenario puts THAT log on a crashing faultfs and kills
// the coordinator at every mutation site its own WAL performs — mid-batch,
// mid-checkpoint, mid-assignment-journal — while the shard nodes stay
// alive, then drives a standby takeover:
//
//  1. Fail closed: once the coordinator's journal dies, Add acks nothing
//     more. The acked record count is always a whole-batch prefix of the
//     workload, and queries against the degraded coordinator either match
//     the reference bits for exactly that prefix or refuse — never a
//     partial batch, never wrong bits.
//
//  2. Zero seed-corpus replay: a fresh coordinator over the same directory
//     (the standby) recovers the canonical log and assignment from the
//     coordinator WAL alone, fences a higher epoch past the live nodes,
//     and resyncs their tails from the recovered log. Only batches the
//     journal never captured are re-fed.
//
//  3. Epochs are monotonic across the takeover: the standby's epoch is
//     strictly above every epoch the crashed incarnation journaled or any
//     node accepted.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"trajforge/internal/cluster"
	"trajforge/internal/fsx/faultfs"
)

// coordinatorObs is what one coordinator-crash execution observed. The
// memory-only nodes stay live across the crash for the standby to take
// over, so the observation owns them.
type coordinatorObs struct {
	*cluster.Loopback
	bootstrapDeath bool   // NewStore failed: the coordinator never came up
	acked          int    // records the crashed incarnation acknowledged
	degradedMatch  bool   // the degraded-window probes all answered
	crashedEpoch   uint64 // last epoch the crashed incarnation issued
}

// coordinatorCrash is the scenario on the fixture that kills the
// coordinator's journal.
type coordinatorCrash struct{ *clusterFixture }

func (sc coordinatorCrash) victims() []string { return []string{""} }

// ackedBatches maps an acked record count back to a whole-batch prefix
// index, or errors: a partial batch in the canonical log would mean the
// coordinator acked half an ingest.
func (sc coordinatorCrash) ackedBatches(n int) (int, error) {
	for k, plen := range sc.prefixLen {
		if plen == n {
			return k, nil
		}
	}
	return 0, fmt.Errorf("acked record count %d is not a whole-batch prefix", n)
}

// run starts live nodes and a durable coordinator on the faulting
// filesystem, feeds the workload, and probes the degraded window.
func (sc coordinatorCrash) run(dir, _ string, vfs *faultfs.FS) (obs *coordinatorObs, err error) {
	lb, err := cluster.StartLoopback(sc.cfg, sc.ids, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lb.Close()
		}
	}()
	obs = &coordinatorObs{Loopback: lb}
	store, err := sc.coordinator(lb.Addrs, filepath.Join(dir, "coord"), vfs)
	if err != nil {
		if !vfs.Faulted() {
			return nil, err
		}
		// The coordinator died at bootstrap — before serving anything. The
		// standby takeover must still come up over whatever survived.
		obs.bootstrapDeath = true
		return obs, nil
	}
	defer store.Close()
	// Migration outcome intentionally unchecked under a fault: a dying
	// journal degrades the coordinator but must never corrupt the handoff.
	migErr := sc.ingest(store)
	obs.acked = store.Len()
	k, err := sc.ackedBatches(obs.acked)
	if err != nil {
		return nil, err
	}
	if !vfs.Faulted() && (migErr != nil || k != len(sc.batches)) {
		return nil, fmt.Errorf("fault-free run acked %d/%d batches, migration: %v", k, len(sc.batches), migErr)
	}
	if k < len(sc.batches) {
		if deg, reason := store.HealthStatus(); !deg || !strings.Contains(reason, "wal") {
			return nil, fmt.Errorf("coordinator refused batches but health is not wal-degraded (degraded=%v reason=%q)", deg, reason)
		}
	}
	// Degraded-window probes: answers must match the ACKED prefix reference
	// exactly, or refuse. Never partial, never the full-set bits for
	// records that were refused.
	refused, err := sc.probe(store, sc.refAt[k])
	if err != nil {
		return nil, fmt.Errorf("degraded (acked %d) %w", obs.acked, err)
	}
	if refused != nil && !vfs.Faulted() {
		return nil, fmt.Errorf("fault-free %w", refused)
	}
	obs.degradedMatch = refused == nil
	obs.crashedEpoch = store.Assignment().Epoch
	return obs, nil
}

// check is the standby takeover: same directory, healthy filesystem, nodes
// still live. Recovery must come from the coordinator WAL, not the seed
// corpus — only batches the journal never captured are re-fed.
func (sc coordinatorCrash) check(dir string, obs *coordinatorObs, rep *Report) error {
	if obs.bootstrapDeath {
		rep.BootstrapDeaths++
	} else if obs.acked < sc.prefixLen[len(sc.batches)] {
		rep.FailedClosed++
	}
	if obs.degradedMatch {
		rep.DegradedProbeMatches++
	}
	// Epochs the live nodes accepted from the crashed incarnation — the
	// floor the standby must fence above. Read before the standby pushes
	// its own assignment.
	var maxNodeEpoch uint64
	for _, n := range obs.Nodes {
		maxNodeEpoch = max(maxNodeEpoch, n.Epoch())
	}
	standby, err := sc.coordinator(obs.Addrs, filepath.Join(dir, "coord"), nil)
	if err != nil {
		return fmt.Errorf("standby takeover: %w", err)
	}
	defer standby.Close()

	recovered := standby.Len()
	if recovered < obs.acked {
		return fmt.Errorf("standby recovered %d records from the coordinator WAL, below the %d acked", recovered, obs.acked)
	}
	k, err := sc.ackedBatches(recovered)
	if err != nil {
		return fmt.Errorf("standby recovery: %w", err)
	}
	if e := standby.Assignment().Epoch; e <= maxNodeEpoch || e <= obs.crashedEpoch {
		return fmt.Errorf("standby epoch %d does not fence above node epoch %d and crashed epoch %d", e, maxNodeEpoch, obs.crashedEpoch)
	}

	// Re-feed ONLY the un-journaled tail.
	for _, b := range sc.batches[k:] {
		standby.Add(b)
		rep.TailBatches++
	}
	if standby.Len() != sc.prefixLen[len(sc.batches)] {
		return fmt.Errorf("standby serves %d records after tail feed, want %d", standby.Len(), sc.prefixLen[len(sc.batches)])
	}
	if refused, err := sc.probe(standby, sc.ref()); err != nil || refused != nil {
		return fmt.Errorf("standby %w", errors.Join(err, refused))
	}
	return nil
}

// RunCoordinator explores coordinator-WAL crash points: each site is
// replayed with a crashing torn-write fault and driven through fail-closed,
// degraded-window, and standby-takeover invariants.
func RunCoordinator(opts Options) (*Report, error) {
	f, err := newClusterFixture(opts.Seed, coordinatorRecordCount, []string{"a", "b"}, false)
	if err != nil {
		return nil, err
	}
	return explore("coordinator", coordinatorCrash{f}, opts)
}
