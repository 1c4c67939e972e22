package binenc

import (
	"fmt"
	"math"

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
