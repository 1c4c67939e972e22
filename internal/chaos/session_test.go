package chaos

import "testing"

// TestSessionCrashPointExploration crashes the filesystem at every mutation
// site of a streaming-session workload — opens, interleaved chunk appends,
// an interleaved batch upload, and closes, each flushed durable — and
// asserts no acknowledged operation is lost and recovered state is
// bit-identical. The run itself checks the invariants; the test asserts the
// exploration covered a meaningful crash surface.
func TestSessionCrashPointExploration(t *testing.T) {
	rep, err := RunSessions(Options{Seed: 1, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 112 {
		t.Fatalf("explored %d crash points, want 112", rep.Sites)
	}
	if rep.EmptyRecoveries == 0 {
		t.Fatal("no crash point recovered to the empty state")
	}
	if rep.FullRecoveries == 0 {
		t.Fatal("no crash point recovered the full verdict ledger")
	}
	if rep.MaxAcked == 0 {
		t.Fatal("no crash point acknowledged any verdict before dying")
	}
	// The point of the scenario: some crashes must land mid-session, with
	// journaled chunks but no verdict, and recovery must carry them.
	if rep.InFlightRecoveries == 0 {
		t.Fatal("no crash point recovered an in-flight session")
	}
}
