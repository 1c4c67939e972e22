package binenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"trajforge/internal/wifi"
)

// The observation block every format shares:
//
//	scan = u16 nObs | nObs × obs
//	obs  = u8 len(mac) | mac | i16 rssi
//
// A MAC over 255 bytes or an RSSI outside int16 has no encoding. CheckScan
// is the rule the HTTP edge applies to uploads in any wire form, so nothing
// reaches the store, the WAL or the shard transport that they cannot carry.

// obsMinBytes is the least one encoded observation takes (an empty MAC).
const obsMinBytes = 1 + 2

// obsOK reports whether one reading can be encoded; obsError says why not.
// The test is split from the message so it inlines into the encode loops.
func obsOK(mac string, rssi int) bool {
	return len(mac) <= math.MaxUint8 && rssi >= math.MinInt16 && rssi <= math.MaxInt16
}

func obsError(mac string, rssi int) error {
	if len(mac) > math.MaxUint8 {
		return fmt.Errorf("%w: MAC of %d bytes, limit %d", ErrValue, len(mac), math.MaxUint8)
	}
	return fmt.Errorf("%w: RSSI %d outside int16", ErrValue, rssi)
}

func checkScanLen(n int) error {
	if n > math.MaxUint16 {
		return fmt.Errorf("%w: scan of %d observations, limit %d", ErrValue, n, math.MaxUint16)
	}
	return nil
}

// CheckScan reports whether a scan can be encoded.
func CheckScan(scan wifi.Scan) error {
	if err := checkScanLen(len(scan)); err != nil {
		return err
	}
	for _, obs := range scan {
		if !obsOK(obs.MAC, obs.RSSI) {
			return obsError(obs.MAC, obs.RSSI)
		}
	}
	return nil
}

// putObs appends one observation that passed obsOK.
func putObs(buf []byte, mac string, rssi int) []byte {
	buf = append(append(buf, byte(len(mac))), mac...)
	return append(buf, byte(rssi), byte(rssi>>8))
}

// AppendObs appends one observation.
func AppendObs(buf []byte, mac string, rssi int) ([]byte, error) {
	if !obsOK(mac, rssi) {
		return nil, obsError(mac, rssi)
	}
	return putObs(buf, mac, rssi), nil
}

// AppendScan appends a scan in the order given.
func AppendScan(buf []byte, scan wifi.Scan) ([]byte, error) {
	err := checkScanLen(len(scan))
	if err != nil {
		return nil, err
	}
	buf = AppendU16(buf, uint16(len(scan)))
	for _, obs := range scan {
		if !obsOK(obs.MAC, obs.RSSI) {
			return nil, obsError(obs.MAC, obs.RSSI)
		}
		buf = putObs(buf, obs.MAC, obs.RSSI)
	}
	return buf, nil
}

// ObsCount reads an observation count and checks it against the unread
// bytes.
func (r *Reader) ObsCount() int { return r.Count(uint32(r.U16()), obsMinBytes) }

// Scan reads a scan; an empty one decodes as nil.
func (r *Reader) Scan() wifi.Scan {
	n := r.ObsCount()
	if n == 0 {
		return nil
	}
	scan := make(wifi.Scan, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		mac := r.Str8()
		scan = append(scan, wifi.Observation{MAC: mac, RSSI: r.I16()})
	}
	return scan
}

// SortedObs is an observation block whose MACs are in strictly ascending
// byte order — how a record's readings travel between the coordinator and
// the shard nodes. It aliases the bytes it was read from. Only
// Reader.SortedObs builds a non-empty one, so Next needs no error path.
type SortedObs struct {
	n int
	b []byte // n × obs
}

// Len returns the number of observations left in the block.
func (o SortedObs) Len() int { return o.n }

// Next takes the block's first observation off it; call it only while Len is
// positive.
func (o *SortedObs) Next() (mac []byte, rssi int16) {
	end := 1 + int(o.b[0])
	mac = o.b[1:end]
	rssi = int16(uint16(o.b[end]) | uint16(o.b[end+1])<<8)
	o.n, o.b = o.n-1, o.b[end+2:]
	return mac, rssi
}

// SortedObs reads a counted observation block, failing with ErrValue unless
// every MAC sorts strictly after the one before it.
func (r *Reader) SortedObs() SortedObs {
	n := r.ObsCount()
	start := r.off
	var prev []byte
	for i := 0; i < n && r.err == nil; i++ {
		mac := r.Take(int(r.U8()))
		r.Take(2)
		if i > 0 && r.err == nil && bytes.Compare(mac, prev) <= 0 {
			r.Fail(fmt.Errorf("%w: observations not in strict MAC order (%q after %q)", ErrValue, mac, prev))
		}
		prev = mac
	}
	if r.err != nil {
		return SortedObs{}
	}
	return SortedObs{n: n, b: r.data[start:r.off]}
}

// AppendSortedScan appends a scan as the counted block Reader.SortedObs
// accepts: ascending MAC order, and of a MAC the scan repeats only its last
// reading — what a map filled from the scan in order would hold. scratch is
// the sort buffer, handed back (grown if need be) for the next call.
func AppendSortedScan(buf []byte, scan, scratch wifi.Scan) ([]byte, wifi.Scan, error) {
	scratch = append(scratch[:0], scan...)
	// Stable, so a repeated MAC's readings stay in scan order.
	slices.SortStableFunc(scratch, func(a, b wifi.Observation) int { return strings.Compare(a.MAC, b.MAC) })
	countAt := len(buf)
	buf = append(buf, 0, 0)
	n := 0
	for i, obs := range scratch {
		if i+1 < len(scratch) && scratch[i+1].MAC == obs.MAC {
			continue
		}
		if !obsOK(obs.MAC, obs.RSSI) {
			return nil, scratch, obsError(obs.MAC, obs.RSSI)
		}
		buf = putObs(buf, obs.MAC, obs.RSSI)
		n++
	}
	// The limit is on the readings kept, as for a map filled from the scan.
	if err := checkScanLen(n); err != nil {
		return nil, scratch, err
	}
	binary.LittleEndian.PutUint16(buf[countAt:], uint16(n))
	return buf, scratch, nil
}
