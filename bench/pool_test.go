package main

import (
	"math"
	"testing"
)

func testWorld(t *testing.T) *world {
	t.Helper()
	w, err := newWorld(worldSeed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testPool(t *testing.T, w *world, seed int64, n int, binary, sessions bool) *pool {
	t.Helper()
	tr, err := w.genTraffic(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.encodePool(tr, n, binary, sessions)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolFollowsSeed(t *testing.T) {
	const n = 400
	// Two cities built from scratch: equal digests need the whole chain —
	// city, traffic, encoding — to be a function of the seeds alone.
	w, rebuilt := testWorld(t), testWorld(t)
	a := testPool(t, w, 7, n, true, false)
	if again := testPool(t, rebuilt, 7, n, true, false); a.digest != again.digest {
		t.Errorf("seed 7 gave digests %s and %s", a.digest, again.digest)
	}
	if other := testPool(t, w, 8, n, true, false); a.digest == other.digest {
		t.Errorf("seeds 7 and 8 gave the same digest %s", a.digest)
	}
	for class, want := range map[string]float64{classHonest: 75, classNav: 15, classSpoof: 10} {
		got := 100 * float64(a.counts[class]) / n
		if math.Abs(got-want) > 2 {
			t.Errorf("%s is %.1f%% of the pool, want %.0f%% within 2 points", class, got, want)
		}
	}

	// The same seed on another wire or at another size is the same traffic.
	sess := testPool(t, w, 7, 40, true, true)
	if sess.requests != 40*(2+sessionAppends) {
		t.Errorf("session pool has %d requests, want %d", sess.requests, 40*(2+sessionAppends))
	}
	short := testPool(t, w, 7, 40, true, false)
	for i := range short.items {
		if a.items[i].class != sess.items[i].class {
			t.Fatalf("item %d is %s as a batch and %s as a session", i, a.items[i].class, sess.items[i].class)
		}
		if string(short.items[i].reqs[0].body) != string(a.items[i].reqs[0].body) {
			t.Fatalf("item %d differs between a 40- and a %d-item pool", i, n)
		}
	}
}
