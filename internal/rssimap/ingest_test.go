package rssimap

import (
	"fmt"
	"testing"

	"trajforge/internal/binenc"
	"trajforge/internal/geo"
	"trajforge/internal/wifi"
)

// wireObs encodes a scan as the shard transport's observation block.
func wireObs(t testing.TB, scan wifi.Scan) binenc.SortedObs {
	t.Helper()
	buf, _, err := binenc.AppendSortedScan(nil, scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := binenc.NewReader(buf)
	obs := r.SortedObs()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return obs
}

// TestAddWireAllocatesNothingPerMAC pins the node-side ingest: a record whose
// MACs and contributor the store already knows costs its readings slice and
// its counting area — the same few allocations for 12 MACs as for 48, no
// string or map entry per MAC.
func TestAddWireAllocatesNothingPerMAC(t *testing.T) {
	scanOf := func(n int) wifi.Scan {
		scan := make(wifi.Scan, n)
		for i := range scan {
			scan[i] = wifi.Observation{MAC: fmt.Sprintf("02:4e:00:00:00:%02x", i), RSSI: -40 - i}
		}
		return scan
	}
	s, err := NewStore(DefaultConfig(), []Record{{RSSI: RecordFromScan(geo.Point{}, scanOf(48)).RSSI, Contributor: "dev-1"}})
	if err != nil {
		t.Fatal(err)
	}
	contributor := []byte("dev-1")
	x := 0.0
	allocs := func(n int) float64 {
		recs := []WireRecord{{Obs: wireObs(t, scanOf(n)), Contributor: contributor}}
		return testing.AllocsPerRun(200, func() {
			x += 100 // alone in its counting area and its grid cell
			recs[0].Pos = geo.Point{X: x}
			s.AddWire(recs)
		})
	}
	few, many := allocs(12), allocs(48)
	t.Logf("allocations per ingested record: %.0f with 12 known MACs, %.0f with 48", few, many)
	if few > 8 || many > few+2 {
		t.Fatalf("%.0f allocations for a 12-MAC record and %.0f for a 48-MAC one: ingest allocates per MAC", few, many)
	}
	if rec := s.Record(s.Len() - 1); len(rec.RSSI) != 48 || rec.RSSI["02:4e:00:00:00:2f"] != -87 || rec.Contributor != "dev-1" {
		t.Fatalf("last ingested record read back as %+v", rec)
	}
}
