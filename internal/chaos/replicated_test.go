package chaos

import "testing"

// TestReplicatedCrashPointExploration kills the busiest tile's primary,
// then its follower, at every storage mutation the victim performs during
// a replicated three-node workload with a mid-run migration, a failover
// window, and a Rereplicate repair. RunClusterReplicated itself asserts
// the invariants (failover and repaired answers bit-identical to the
// single-process reference, recovery bit-identical, monotonic epochs); the
// test asserts the exploration actually drove the replication machinery.
func TestReplicatedCrashPointExploration(t *testing.T) {
	rep, err := RunClusterReplicated(Options{Seed: 11, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 65 {
		t.Fatalf("explored %d replicated crash points, want 65", rep.Sites)
	}
	// Both migration outcomes, pinned as in TestClusterCrashPointExploration.
	if rep.Committed != 44 || rep.Aborted != 21 {
		t.Fatalf("migration ended committed/aborted %d/%d across crash points, want 44/21", rep.Committed, rep.Aborted)
	}
	// A dead primary must not take the failure window down with it: the
	// follower replica serves, and serves the right bits.
	if rep.LiveProbeMatches == 0 {
		t.Fatal("no crash point served matching probes during the failover window")
	}
	if rep.ReplicaReads == 0 {
		t.Fatal("no query was ever served by a follower replica")
	}
	// The repair path must both run and leave a cluster that answers.
	if rep.Repairs == 0 {
		t.Fatal("no crash point completed a re-replication")
	}
	if rep.RepairMatches == 0 {
		t.Fatal("no crash point served matching probes after repair")
	}
}

// TestCoordinatorCrashPointExploration kills the coordinator's own WAL at
// every mutation site it performs and drives a standby takeover over the
// same directory. RunCoordinator itself asserts fail-closed ingestion,
// acked-prefix bit-identity during the degraded window, WAL-only recovery
// (only un-journaled tail batches are re-fed), and epoch fencing across
// the takeover; the test asserts the exploration covered the interesting
// regimes.
func TestCoordinatorCrashPointExploration(t *testing.T) {
	rep, err := RunCoordinator(Options{Seed: 13, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 28 {
		t.Fatalf("explored %d coordinator crash points, want 28", rep.Sites)
	}
	// Mid-ingest journal deaths must refuse batches (fail closed) at some
	// sites, and bootstrap deaths must appear at the early sites.
	if rep.FailedClosed == 0 {
		t.Fatal("no crash point caused ingestion to fail closed")
	}
	if rep.BootstrapDeaths == 0 {
		t.Fatal("no crash point killed the coordinator at bootstrap")
	}
	if rep.DegradedProbeMatches == 0 {
		t.Fatal("no crash point served matching probes from the degraded coordinator")
	}
}
