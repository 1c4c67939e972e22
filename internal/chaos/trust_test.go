package chaos

import "testing"

// TestTrustCrashPointExploration crashes the trust-pipeline workload at
// every filesystem mutation site. Every quarantine-store mutation —
// staging, corroboration, promotion, weight push — happens between the
// WAL frame and the serving store, so each crash point checks that
// promoted points survive bit-identically, quarantined points are never
// served pre-promotion, and the full pipeline state (ledger, quarantine,
// drift, per-tile provenance) recovers to the reference prefix.
func TestTrustCrashPointExploration(t *testing.T) {
	rep, err := RunTrust(Options{Seed: 1, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 77 {
		t.Fatalf("explored %d crash points, want 77", rep.Sites)
	}
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
