package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"trajforge/internal/cluster"
	"trajforge/internal/rssimap"
	"trajforge/internal/shardstore"
)

// cityFeatureBitsGolden is the SHA-256 of every feature bit the walk in
// cityFeatureBits produces. It was recorded at 7e093d2, with the per-point
// kernel still probing once per (MAC, reference, neighbour), and every
// backend has to keep reproducing it: a kernel change that moves one bit of
// one Φ, residual or coverage value anywhere in the city moves the hash.
const cityFeatureBitsGolden = "8c136029b5b4344d24c64a94db769e3e9829cd808fb1e010f4a521bef4b0a944"

// cityFeatureBits ingests the first 120 uploads of a seeded 200-upload city
// and hashes the Eq. 8 vectors of the other 80 under two feature
// configurations, ingesting each block of ten once it has been scored so
// the queries run against a growing store.
func cityFeatureBits(t *testing.T, city *City, b rssimap.Backend) string {
	t.Helper()
	wide := rssimap.DefaultFeatureConfig()
	wide.TopK, wide.Tol, wide.DisableTheta2 = 9, 2, true
	cfgs := []rssimap.FeatureConfig{rssimap.DefaultFeatureConfig(), wide}

	const seeded, block = 120, 10
	b.AddUploads(city.Hist[:seeded])
	h := sha256.New()
	var word [8]byte
	for lo := seeded; lo < len(city.Hist); lo += block {
		probes := city.Hist[lo : lo+block]
		for _, u := range probes {
			for _, cfg := range cfgs {
				vec, err := rssimap.Features(context.Background(), b, u, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vec {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
			}
		}
		b.AddUploads(probes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCityFeatureBitsGolden(t *testing.T) {
	city, err := BuildCity(CityOptions{Seed: 17, Hist: 200})
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := shardstore.DefaultConfig()
	backends := map[string]func(t *testing.T) rssimap.Backend{
		"rssimap": func(t *testing.T) rssimap.Backend {
			s, err := rssimap.NewStore(shardCfg.Store, nil)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"cluster": func(t *testing.T) rssimap.Backend {
			lb, err := cluster.StartLoopback(shardCfg, []string{"n1", "n2", "n3"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(lb.Close)
			cs, err := cluster.NewStore(cluster.Options{Shard: shardCfg, Nodes: lb.Addrs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cs.Close() })
			return cs
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			if got := cityFeatureBits(t, city, open(t)); got != cityFeatureBitsGolden {
				t.Fatalf("feature bits of the seeded city hash to %s, want %s", got, cityFeatureBitsGolden)
			}
		})
	}
}
