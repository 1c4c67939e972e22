package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

// ingestFixture is a seeded crowd: seed records, two rounds of uploads to
// grow a store with, and held-out uploads to probe it. The first round holds
// the cases the ingest forms could disagree on: a MAC repeated inside one
// scan (the last reading must win), a point without a scan, a contributor
// and a MAC no seed record knows.
func ingestFixture() (seed []rssimap.Record, rounds [2][]*wifi.Upload, probes []*wifi.Upload) {
	rng := rand.New(rand.NewSource(1601))
	const width, height = 70, 70
	seed = randRecords(rng, 500, width, height)
	for i := range seed {
		if i%4 != 0 {
			seed[i].Contributor = fmt.Sprintf("dev-%d", i%5)
		}
	}
	for r := range rounds {
		for i := 0; i < 6; i++ {
			u := randUpload(rng, 25, width, height)
			u.Contributor = fmt.Sprintf("dev-%d", (i+3*r)%7) // dev-5 and dev-6 are new
			rounds[r] = append(rounds[r], u)
		}
	}
	first := rounds[0][0]
	first.Scans[0] = wifi.Scan{
		{MAC: "02:4e:00:00:00:01", RSSI: -70}, {MAC: "02:4e:00:00:00:09", RSSI: -52},
		{MAC: "02:4e:00:00:00:01", RSSI: -41}, {MAC: "02:4e:00:00:00:01", RSSI: -63},
	}
	first.Scans[1] = nil
	first.Scans[2] = append(first.Scans[2], wifi.Observation{MAC: "never:seen:before", RSSI: -77})
	rounds[0][1].Contributor = "" // the anonymous contributor, through the scan form
	for i := 0; i < 5; i++ {
		probes = append(probes, randUpload(rng, 25, width, height))
	}
	return seed, rounds, probes
}

// featureBits extracts the probes' feature vectors as exact bit patterns.
func featureBits(t *testing.T, b rssimap.Backend, probes []*wifi.Upload) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(probes))
	for i, u := range probes {
		feat, err := rssimap.Features(context.Background(), b, u, rssimap.DefaultFeatureConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range feat {
			out[i] = append(out[i], math.Float64bits(f))
		}
	}
	return out
}

// checkTheta2 requires, on the global store, that every cached θ2 is Eq. 6 of
// the record's current density — so a value read from the by-cardinality
// table while weights are installed shows up — and returns the cache's bits.
func checkTheta2(t *testing.T, b rssimap.Backend) []uint64 {
	t.Helper()
	s, ok := b.(*rssimap.Store)
	if !ok {
		return nil
	}
	out := make([]uint64, s.Len())
	for h := range out {
		got := s.Theta2(int32(h))
		if want := 1 - math.Pow(rssimap.DefaultConfig().DensityBase, s.Density(int32(h))); got != want {
			t.Fatalf("θ2(%d) = %v, Eq. 6 of its density gives %v", h, got, want)
		}
		out[h] = math.Float64bits(got)
	}
	return out
}

// TestIngestFormsBuildSameStore: a backend grown by AddUploads (scan form; on
// the cluster, scan → canonical bytes → wire form on the nodes), one grown by
// Add(UploadRecords(...)) (map form) and one built over all the records at
// once must be the same store — equal Records(), equal θ2 for every record,
// bit-equal Features — with no trust table, under an all-1.0 table, under a
// mixed table while more uploads arrive, and after the table is removed.
func TestIngestFormsBuildSameStore(t *testing.T) {
	backends := map[string]func(t *testing.T, recs []rssimap.Record) rssimap.Backend{
		"rssimap": func(t *testing.T, recs []rssimap.Record) rssimap.Backend {
			s, err := rssimap.NewStore(rssimap.DefaultConfig(), recs)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"cluster": func(t *testing.T, recs []rssimap.Record) rssimap.Backend {
			tc := bootCluster(t, 3, false, Options{Replicate: true})
			tc.store.Add(recs)
			return tc.store
		},
	}
	for name, build := range backends {
		t.Run(name, func(t *testing.T) {
			seed, rounds, probes := ingestFixture()
			all := append([]rssimap.Record(nil), seed...)

			byUploads, byRecords := build(t, seed), build(t, seed)
			var plain [][]uint64 // the probes' bits with no table installed
			grow := func(round []*wifi.Upload) rssimap.Backend {
				byUploads.AddUploads(round)
				recs := rssimap.UploadRecords(round)
				byRecords.Add(recs)
				all = append(all, recs...)
				return build(t, all)
			}
			same := func(phase string, weights map[string]float64, rebuilt rssimap.Backend) [][]uint64 {
				t.Helper()
				if tw, ok := rebuilt.(rssimap.TrustWeighted); ok && weights != nil {
					tw.SetTrustWeights(weights)
				}
				want, wantTh2 := featureBits(t, rebuilt, probes), checkTheta2(t, rebuilt)
				for form, b := range map[string]rssimap.Backend{"AddUploads": byUploads, "Add": byRecords} {
					if got := b.Records(); !reflect.DeepEqual(got, all) {
						t.Fatalf("%s: store grown by %s holds different records (%d vs %d)", phase, form, len(got), len(all))
					}
					if got := checkTheta2(t, b); !reflect.DeepEqual(got, wantTh2) {
						t.Fatalf("%s: store grown by %s caches different θ2 than a rebuilt one", phase, form)
					}
					if got := featureBits(t, b, probes); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: store grown by %s answers different feature bits than a rebuilt one", phase, form)
					}
				}
				return want
			}

			plain = same("no table", nil, grow(rounds[0]))
			if uniq := len(rssimap.UploadRecords(rounds[0][:1])[0].RSSI); uniq != 2 {
				t.Fatalf("fixture: the repeated-MAC scan holds %d distinct MACs, want 2", uniq)
			}
			if rec := byUploads.Records()[len(seed)]; rec.RSSI["02:4e:00:00:00:01"] != -63 {
				t.Fatalf("repeated MAC: stored %d, want the last reading -63", rec.RSSI["02:4e:00:00:00:01"])
			}

			setAll := func(weights map[string]float64) bool {
				for _, b := range []rssimap.Backend{byUploads, byRecords} {
					tw, ok := b.(rssimap.TrustWeighted)
					if !ok {
						return false
					}
					tw.SetTrustWeights(weights)
				}
				return true
			}
			ones := map[string]float64{"": 1, "dev-0": 1, "dev-3": 1, "dev-6": 1, "stranger": 1}
			if !setAll(ones) {
				// The cluster serves unweighted: one more round, then done.
				same("second round", nil, grow(rounds[1]))
				return
			}
			if got := same("all-1.0 table", ones, build(t, all)); !reflect.DeepEqual(got, plain) {
				t.Fatal("an all-1.0 table changed feature bits")
			}
			mixed := map[string]float64{"": 0.5, "dev-0": 0.25, "dev-3": 0, "dev-5": 0.7, "dev-6": 0.1}
			setAll(mixed)
			if got := same("mixed table", mixed, build(t, all)); reflect.DeepEqual(got, plain) {
				t.Fatal("fixture: the mixed table changed no feature bit")
			}
			same("mixed table, second round", mixed, grow(rounds[1]))
			setAll(nil)
			same("table removed", nil, build(t, all))
		})
	}
}
