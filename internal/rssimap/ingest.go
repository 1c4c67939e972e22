package rssimap

import (
	"cmp"
	"slices"

	"trajforge/internal/binenc"
	"trajforge/internal/geo"
	"trajforge/internal/wifi"
)

// Ingest. A crowdsourced point reaches the store in one of three forms — a
// map-form Record (seeds, the trust pipeline, tests), a ScanRecord (an
// accepted upload's point as it arrived) or a WireRecord (a shard node
// reading the coordinator's bytes) — and the store turns whichever it is
// handed into interned, ID-sorted readings directly, not by way of another
// form. From there appendLocked and indexLocked are the only path in.

// ScanRecord is a crowdsourced point as an upload carries it: where the
// uploader reported being, the scan heard there, and who uploaded it. A scan
// may name a MAC more than once; the last reading of it is the one that
// counts, as in a Record built from the scan.
type ScanRecord struct {
	Pos         geo.Point
	Scan        wifi.Scan
	Contributor string
}

// Record returns the map form of the point.
func (r ScanRecord) Record() Record {
	rec := RecordFromScan(r.Pos, r.Scan)
	rec.Contributor = r.Contributor
	return rec
}

// WireRecord is a crowdsourced point in the shard transport's form: the
// readings as a MAC-ordered observation block and the contributor as bytes,
// both aliasing the frame they were decoded from. The store copies what it
// keeps.
type WireRecord struct {
	Pos         geo.Point
	Obs         binenc.SortedObs
	Contributor []byte
}

// UploadScans extracts the crowdsourced points of the given uploads: every
// point that carries a scan, in point order, skipping invalid uploads — the
// shared ingestion rule of every Backend. Each point is stamped with the
// upload's contributor identity; the scans are the uploads' own slices.
func UploadScans(uploads []*wifi.Upload) []ScanRecord {
	var recs []ScanRecord
	for _, u := range uploads {
		if u.Validate() != nil {
			continue
		}
		for i, pt := range u.Traj.Points {
			if len(u.Scans[i]) != 0 {
				recs = append(recs, ScanRecord{Pos: pt.Pos, Scan: u.Scans[i], Contributor: u.Contributor})
			}
		}
	}
	return recs
}

// UploadRecords is UploadScans in the map form.
func UploadRecords(uploads []*wifi.Upload) []Record {
	scans := UploadScans(uploads)
	if len(scans) == 0 {
		return nil
	}
	recs := make([]Record, len(scans))
	for i, sr := range scans {
		recs[i] = sr.Record()
	}
	return recs
}

// Add ingests new crowdsourced records incrementally, updating the spatial
// index and the cached RPD counting areas of every affected neighbor — the
// online path a live provider uses as accepted uploads keep arriving.
func (s *Store) Add(records []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range records {
		s.indexLocked(s.appendLocked(rec.Pos, s.contribID(rec.Contributor), s.mapReadings(rec.RSSI)))
	}
}

// AddWire is Add for points in the shard transport's form. A record whose
// MACs and contributor the store has seen before allocates its readings and
// its counting area, nothing per MAC.
func (s *Store) AddWire(records []WireRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range records {
		cid, ok := s.contribIDs[string(rec.Contributor)]
		if !ok {
			cid = s.contribID(string(rec.Contributor))
		}
		s.indexLocked(s.appendLocked(rec.Pos, cid, s.wireReadings(rec.Obs)))
	}
}

// AddUploads ingests every point of the given uploads that carries a scan,
// in the form the uploads carry it.
func (s *Store) AddUploads(uploads []*wifi.Upload) {
	records := UploadScans(uploads)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range records {
		s.indexLocked(s.appendLocked(rec.Pos, s.contribID(rec.Contributor), s.scanReadings(rec.Scan)))
	}
}

// macID interns a MAC. Callers must hold the write lock (or be the
// constructor), as for every function below.
func (s *Store) macID(mac string) int32 {
	id, ok := s.macIDs[mac]
	if !ok {
		id = int32(len(s.macNames))
		s.macIDs[mac] = id
		s.macNames = append(s.macNames, mac)
	}
	return id
}

// contribID interns a contributor identity.
func (s *Store) contribID(name string) int32 {
	id, ok := s.contribIDs[name]
	if !ok {
		id = int32(len(s.contribNames))
		s.contribIDs[name] = id
		s.contribNames = append(s.contribNames, name)
		if s.trust != nil {
			s.wByID = append(s.wByID, s.trustWeightOf(name))
		}
	}
	return id
}

func byMAC(a, b reading) int { return cmp.Compare(a.mac, b.mac) }

func (s *Store) mapReadings(m map[string]int) []reading {
	rs := make([]reading, 0, len(m))
	for mac, v := range m {
		rs = append(rs, reading{mac: s.macID(mac), rssi: int16(v)})
	}
	slices.SortFunc(rs, byMAC)
	return rs
}

func (s *Store) scanReadings(scan wifi.Scan) []reading {
	rs := make([]reading, 0, len(scan))
	for _, o := range scan {
		rs = append(rs, reading{mac: s.macID(o.MAC), rssi: int16(o.RSSI)})
	}
	// Stable, so the readings of a repeated MAC stay in scan order and the
	// last of each run is the one a map built from the scan would hold.
	slices.SortStableFunc(rs, byMAC)
	out := rs[:0]
	for i, rd := range rs {
		if i+1 == len(rs) || rs[i+1].mac != rd.mac {
			out = append(out, rd)
		}
	}
	return out
}

func (s *Store) wireReadings(obs binenc.SortedObs) []reading {
	rs := make([]reading, 0, obs.Len())
	for obs.Len() > 0 {
		mac, rssi := obs.Next()
		id, ok := s.macIDs[string(mac)] // no allocation for a known MAC
		if !ok {
			id = s.macID(string(mac))
		}
		rs = append(rs, reading{mac: id, rssi: rssi})
	}
	slices.SortFunc(rs, byMAC)
	return rs
}

// appendLocked appends a record and its grid entry; readings must be sorted
// by interned MAC and hold each MAC once.
func (s *Store) appendLocked(pos geo.Point, contrib int32, readings []reading) int32 {
	idx := int32(len(s.records))
	s.records = append(s.records, storedRecord{pos: pos, contrib: contrib, readings: readings})
	cell := s.cellOf(pos)
	s.grid[cell] = append(s.grid[cell], idx)
	return idx
}

// indexLocked brings the counting areas up to date with record idx, the
// newest: its own area, and symmetric updates to its neighbors' areas
// (withinRadius already sees the new record). The θ2 cache entries of exactly
// those records change, so they are recomputed here and nowhere else.
func (s *Store) indexLocked(idx int32) {
	s.areaBuf = s.withinRadiusInto(s.areaBuf, s.records[idx].pos, s.cfg.R)
	slices.Sort(s.areaBuf)
	area := slices.Clone(s.areaBuf)
	s.neighbors = append(s.neighbors, area)
	s.th2 = append(s.th2, 0)
	if s.trust != nil {
		// Maintain the trusted-mass cache: idx is the largest index, so
		// appending its weight to each neighbor's running sum preserves the
		// canonical ascending-index accumulation order, and the new record's
		// own sum walks the (sorted) area from scratch.
		w := s.wByID[s.records[idx].contrib]
		var sum float64
		for _, n := range area {
			if n != idx {
				s.wsum[n] += w
			}
			sum += s.wByID[s.records[n].contrib]
		}
		s.wsum = append(s.wsum, sum)
	}
	for _, n := range area {
		if n != idx {
			s.neighbors[n] = append(s.neighbors[n], idx)
		}
		s.th2[n] = s.theta2Locked(n)
	}
}
