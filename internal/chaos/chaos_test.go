package chaos

import "testing"

// TestCrashPointExploration enumerates every filesystem mutation the
// durability layer performs for a fixed workload and crashes at each one.
// The run itself asserts the two recovery invariants; the test asserts the
// exploration covered a meaningful crash surface.
func TestCrashPointExploration(t *testing.T) {
	rep, err := Run(Options{Seed: 1, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 77 {
		t.Fatalf("explored %d crash points, want 77", rep.Sites)
	}
	// The crash surface must include both extremes: crashes early enough
	// that nothing survives, and crashes late enough that the full ledger
	// was already acknowledged and must survive whole.
	if rep.EmptyRecoveries == 0 {
		t.Fatal("no crash point recovered to the empty state")
	}
	if rep.FullRecoveries == 0 {
		t.Fatal("no crash point recovered the full accepted ledger")
	}
	if rep.MaxAcked == 0 {
		t.Fatal("no crash point acknowledged any upload before dying")
	}
}

// TestExplorationDeterministic pins the property the explorers depend on:
// same seed, same fault sites, same outcome at every one of them — for
// every crash scenario, at its test seed.
func TestExplorationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full exploration pass")
	}
	for _, tc := range []struct {
		name string
		seed int64
		run  func(Options) (*Report, error)
	}{
		{"batch", 1, Run},
		{"trust", 1, RunTrust},
		{"sessions", 1, RunSessions},
		{"cluster", 7, RunCluster},
		{"replicated", 11, RunClusterReplicated},
		{"coordinator", 13, RunCoordinator},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run(Options{Seed: tc.seed, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.run(Options{Seed: tc.seed, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if *a != *b {
				t.Fatalf("exploration not deterministic: %+v != %+v", *a, *b)
			}
		})
	}
}
