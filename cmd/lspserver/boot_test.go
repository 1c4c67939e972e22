package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"trajforge"
	"trajforge/internal/cluster"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/shardstore"
	"trajforge/internal/trust"
)

// The boot tests run the function main runs on a small bootstrap corpus:
// crash a provider after it accepted uploads (abandon it without Close),
// boot again over its directories, and compare with the survivor. Every
// boot runs with the default -seed 1.
const bootUploads = 40

func bootWith(t *testing.T, args ...string) (*provider, error) {
	t.Helper()
	cfg, err := parseConfig(append([]string{"-uploads", fmt.Sprint(bootUploads)}, args...))
	if err != nil {
		t.Fatal(err)
	}
	return boot(cfg)
}

func mustBoot(t *testing.T, args ...string) *provider {
	t.Helper()
	p, err := bootWith(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var corpusOnce = sync.OnceValues(func() ([2][]*trajforge.Upload, error) {
	_, real, fakes, err := bootstrapCorpus(1, bootUploads)
	return [2][]*trajforge.Upload{real, fakes}, err
})

// corpus returns the honest training uploads and the fakes of the bootstrap
// corpus every boot in these tests simulates.
func corpus(t *testing.T) (real, fakes []*trajforge.Upload) {
	t.Helper()
	c, err := corpusOnce()
	if err != nil {
		t.Fatal(err)
	}
	return c[0], c[1]
}

// loopback starts three memory-only shard nodes that outlive every
// coordinator a test boots over them, and returns the -join value.
func loopback(t *testing.T) string {
	t.Helper()
	lb, err := cluster.StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	var pairs []string
	for _, id := range []string{"n1", "n2", "n3"} {
		pairs = append(pairs, id+"="+lb.Addrs[id])
	}
	return strings.Join(pairs, ",")
}

// accept posts the honest training uploads and the fakes, interleaved and
// each under its own contributor, over HTTP; compacts halfway, so both the
// snapshot and the WAL tail hold accepted uploads; waits until the tail's
// frames are written; and checks that the store grew.
func accept(t *testing.T, p *provider) {
	t.Helper()
	real, fakes := corpus(t)
	var uploads []*trajforge.Upload
	for i := range fakes {
		if i < len(real) {
			uploads = append(uploads, real[i])
		}
		uploads = append(uploads, fakes[i])
	}
	ts := httptest.NewServer(p.svc.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL, geo.NewProjection(geo.LatLon{Lat: 32.06, Lon: 118.79}))
	before := p.det.Store.Len()
	for i, u := range uploads {
		if i == len(uploads)/2 {
			if err := p.persist.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		c := *u
		c.Contributor = fmt.Sprintf("device-%02d", i)
		if _, err := client.Upload(&c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.persist.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := p.svc.Stats(); st.Accepted == 0 || p.det.Store.Len() == before {
		t.Fatalf("%d of %d uploads accepted, store %d -> %d records: nothing to recover",
			st.Accepted, len(uploads), before, p.det.Store.Len())
	}
}

// observation is what a client of a provider can tell apart: the model,
// the store size, a probe's Eq. 8 features and every probe's P(fake), all
// as bits, and the trust pipeline's stats.
type observation struct {
	model    []byte
	records  int
	features []uint64
	pFake    []uint64
	trust    *trust.Stats
}

func observe(t *testing.T, p *provider) observation {
	t.Helper()
	real, fakes := corpus(t)
	probes := append(real[:3:3], fakes[:3]...)
	var o observation
	var buf bytes.Buffer
	if err := p.det.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	o.model = buf.Bytes()
	o.records = p.det.Store.Len()
	feat, err := rssimap.Features(context.Background(), p.det.Store, probes[0], p.det.Features)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feat {
		o.features = append(o.features, math.Float64bits(f))
	}
	for _, u := range probes {
		pf, err := p.det.ProbFake(u)
		if err != nil {
			t.Fatal(err)
		}
		o.pFake = append(o.pFake, math.Float64bits(pf))
	}
	o.trust = p.svc.Stats().Trust
	return o
}

func sameObservation(t *testing.T, what string, got, want observation) {
	t.Helper()
	if !bytes.Equal(got.model, want.model) {
		t.Errorf("%s: model bytes differ from the survivor's", what)
	}
	if got.records != want.records {
		t.Errorf("%s: store holds %d records, the survivor %d", what, got.records, want.records)
	}
	if !reflect.DeepEqual(got.features, want.features) {
		t.Errorf("%s: probe features differ from the survivor's", what)
	}
	if !reflect.DeepEqual(got.pFake, want.pFake) {
		t.Errorf("%s: probe P(fake) bits %x, the survivor %x", what, got.pFake, want.pFake)
	}
	if !reflect.DeepEqual(got.trust, want.trust) {
		t.Errorf("%s: trust stats\n got %+v\nwant %+v", what, got.trust, want.trust)
	}
}

// TestRestartServesTheSurvivor: one process with -data-dir crashes after
// accepting uploads; the next boot serves the survivor's model, store and
// verdict bits.
func TestRestartServesTheSurvivor(t *testing.T) {
	args := []string{"-data-dir", t.TempDir()}
	survivor := mustBoot(t, args...)
	accept(t, survivor)
	want := observe(t, survivor)
	restarted := mustBoot(t, args...)
	defer restarted.Close()
	sameObservation(t, "restart", observe(t, restarted), want)
}

// TestClusterRestartIngestsOnce: a coordinator with both -data-dir and
// -cluster-data-dir crashes; its restart recovers the accepted uploads
// from its own journal and does not ingest the server WAL's copies again.
// With -trust, the pipeline replays to the survivor's state too.
func TestClusterRestartIngestsOnce(t *testing.T) {
	for _, extra := range [][]string{nil, {"-trust", "-quarantine-k", "1"}} {
		t.Run(strings.Join(append([]string{"flags"}, extra...), " "), func(t *testing.T) {
			args := append([]string{"-join", loopback(t), "-data-dir", t.TempDir(),
				"-cluster-data-dir", t.TempDir()}, extra...)
			survivor := mustBoot(t, args...)
			accept(t, survivor)
			want := observe(t, survivor)
			restarted := mustBoot(t, args...)
			defer restarted.Close()
			sameObservation(t, "coordinator restart", observe(t, restarted), want)
		})
	}
}

// TestStandbyTakeoverServesTheSurvivor: a standby booted over the crashed
// active's coordinator directory serves the active's model and verdicts.
func TestStandbyTakeoverServesTheSurvivor(t *testing.T) {
	join, coordDir, lease := loopback(t), t.TempDir(), filepath.Join(t.TempDir(), "coord.lease")
	active := mustBoot(t, "-join", join, "-data-dir", t.TempDir(), "-cluster-data-dir", coordDir,
		"-lease", lease, "-coord-id", "c1")
	accept(t, active)
	want := observe(t, active)
	standby := mustBoot(t, "-join", join, "-cluster-data-dir", coordDir,
		"-lease", lease, "-coord-id", "c2", "-standby")
	defer standby.Close()
	sameObservation(t, "standby", observe(t, standby), want)
}

// TestShortCoordinatorLogFailsBoot: a coordinator directory holding fewer
// records than the server snapshot is not that snapshot's lineage, and the
// boot refuses it instead of serving a store with records missing.
func TestShortCoordinatorLogFailsBoot(t *testing.T) {
	shortJoin, shortDir := loopback(t), t.TempDir()
	short := mustBoot(t, "-join", shortJoin, "-data-dir", t.TempDir(), "-cluster-data-dir", shortDir)
	have := short.det.Store.Len()
	if err := short.Close(); err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	active := mustBoot(t, "-join", loopback(t), "-data-dir", dataDir, "-cluster-data-dir", t.TempDir())
	accept(t, active)
	want := active.det.Store.Len()
	if err := active.Close(); err != nil {
		t.Fatal(err)
	}

	_, err := bootWith(t, "-join", shortJoin, "-data-dir", dataDir, "-cluster-data-dir", shortDir)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(have)) || !strings.Contains(err.Error(), fmt.Sprint(want)) {
		t.Fatalf("boot over a %d-record coordinator log and a %d-record snapshot: %v", have, want, err)
	}
}

// TestFirstBootModelSameOnBothBackends: on a fresh data directory the
// single store and a 3-node cluster boot the same model bytes and the same
// probe verdict bits, and retraining against the cluster's serving store,
// which an earlier boot did, gives those bytes too.
func TestFirstBootModelSameOnBothBackends(t *testing.T) {
	single := mustBoot(t, "-data-dir", t.TempDir())
	defer single.Close()
	clustered := mustBoot(t, "-join", loopback(t), "-data-dir", t.TempDir())
	defer clustered.Close()
	want := observe(t, single)
	sameObservation(t, "cluster first boot", observe(t, clustered), want)

	real, fakes := corpus(t)
	det, err := trajforge.TrainWiFiDetector(clustered.det.Store, real, fakes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.model) {
		t.Error("the forest trained against the cluster's serving store differs from the booted one")
	}
}
