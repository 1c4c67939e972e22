package chaos

import "testing"

// TestWedgeMidWorkload wedges the filesystem partway through the fixed
// workload and asserts the full degrade/heal cycle: the breaker opens
// within one durability barrier, the service sheds with 503 + Retry-After
// instead of acking non-durably, failed probes keep it open while the
// disk stays dead, the heal compaction closes it, and recovery finds
// every acknowledged verdict — zero acked-verdict loss.
func TestWedgeMidWorkload(t *testing.T) {
	rep, err := RunWedge(Options{Seed: 1, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("wedge produced no degraded sheds")
	}
	if rep.MaxAcked != 12 {
		t.Fatalf("acked %d of 12 uploads after heal", rep.MaxAcked)
	}
	if rep.Opens < 1 || rep.Closes < 1 {
		t.Fatalf("breaker never cycled: %+v", rep)
	}
	// The wedge stays up across at least one cooldown, so at least one
	// half-open probe must have failed and re-opened the breaker.
	if rep.Opens < 2 {
		t.Fatalf("no probe failed against the wedged disk: %+v", rep)
	}
}
