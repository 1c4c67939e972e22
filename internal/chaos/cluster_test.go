package chaos

import "testing"

// TestClusterCrashPointExploration kills a shard node — migration source,
// then migration target — at every storage mutation it performs during a
// workload with a live tile migration in the middle. RunCluster itself
// asserts the recovery invariants (acked records survive bit-identical, no
// split-brain answers, monotonic epochs); the test asserts the exploration
// covered both sides of the migration protocol.
func TestClusterCrashPointExploration(t *testing.T) {
	rep, err := RunCluster(Options{Seed: 7, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 68 {
		t.Fatalf("explored %d cluster crash points, want 68", rep.Sites)
	}
	// The crash surface must exercise both migration outcomes: sites where
	// the move still committed despite the dead node, and sites where the
	// coordinator aborted and kept ownership where it was. The split is
	// pinned: a crash point that changes outcome changed the protocol.
	if rep.Committed != 23 || rep.Aborted != 45 {
		t.Fatalf("migration ended committed/aborted %d/%d across crash points, want 23/45", rep.Committed, rep.Aborted)
	}
	// With two nodes and one victim, late crashes leave the survivor able
	// to answer at least some probes — and those answers matched reference
	// bits (RunCluster fails otherwise).
	if rep.LiveProbeMatches == 0 {
		t.Fatal("no crash point served a matching probe before recovery")
	}
}
