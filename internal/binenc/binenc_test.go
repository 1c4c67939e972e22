package binenc

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"trajforge/internal/wifi"
)

func TestRoundTrip(t *testing.T) {
	scan := wifi.Scan{{MAC: "02:4e:00:00:00:07", RSSI: -91}, {MAC: "", RSSI: math.MaxInt16}, {MAC: "ap", RSSI: math.MinInt16}}
	buf := NewFrame(3, 9, 0)
	buf = append(buf, 0xab)
	buf = AppendU16(buf, 0xbeef)
	buf = AppendU32(buf, 0xdeadbeef)
	buf = AppendU64(buf, 1<<63|5)
	buf = AppendF64(buf, math.Copysign(0, -1))
	buf, err := AppendStr8(buf, "eight")
	if err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendStr16(buf, strings.Repeat("s", 300)); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendScan(buf, scan); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendScan(buf, nil); err != nil {
		t.Fatal(err)
	}
	buf = FinishFrame(buf)

	r := NewReader(buf)
	if ver, kind := r.U8(), r.U8(); ver != 3 || kind != 9 {
		t.Fatalf("header %d/%d", ver, kind)
	}
	r.PayloadLen()
	if got := r.U8(); got != 0xab {
		t.Fatalf("U8 %#x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Fatalf("U16 %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 %#x", got)
	}
	if got := r.U64(); got != 1<<63|5 {
		t.Fatalf("U64 %#x", got)
	}
	if got := r.F64(); math.Float64bits(got) != 1<<63 {
		t.Fatalf("F64 bits %#x", math.Float64bits(got))
	}
	if got := r.Str8(); got != "eight" {
		t.Fatalf("Str8 %q", got)
	}
	if got := r.Str16(); len(got) != 300 {
		t.Fatalf("Str16 of %d bytes", len(got))
	}
	got := r.Scan()
	if len(got) != len(scan) {
		t.Fatalf("scan of %d", len(got))
	}
	for i := range scan {
		if got[i] != scan[i] {
			t.Fatalf("obs %d = %+v, want %+v", i, got[i], scan[i])
		}
	}
	if empty := r.Scan(); empty != nil {
		t.Fatalf("empty scan decoded as %#v, want nil", empty)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.U16() != 0x0201 {
		t.Fatal("first read")
	}
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("short read gave %d, %v", v, r.Err())
	}
	first := r.Err()
	// Everything after the failure is a zero value, consumes nothing and
	// leaves the first error in place.
	if r.U8() != 0 || r.Str8() != "" || r.Take(0) != nil || r.Count(0, 1) != 0 || r.Scan() != nil {
		t.Fatal("read after failure returned data")
	}
	r.Fail(ErrValue)
	r.PayloadLen()
	if r.Err() != first || r.Len() != 1 {
		t.Fatalf("error moved: %v, %d unread", r.Err(), r.Len())
	}
	// Done says where the input ran out: the cursor never left that field.
	if err := r.Done(); !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "offset 2 of 3") {
		t.Fatalf("Done = %v", err)
	}
}

func TestCountRefusesClaims(t *testing.T) {
	r := NewReader(make([]byte, 10))
	if n := r.Count(5, 2); n != 5 || r.Err() != nil {
		t.Fatalf("5×2 in 10 bytes: %d, %v", n, r.Err())
	}
	if n := r.Count(6, 2); n != 0 || !errors.Is(r.Err(), ErrOversized) {
		t.Fatalf("6×2 in 10 bytes: %d, %v", n, r.Err())
	}
	r = NewReader(make([]byte, 10))
	if n := r.Count(math.MaxUint32, math.MaxInt32); n != 0 || !errors.Is(r.Err(), ErrOversized) {
		t.Fatalf("2^32 × 2^31 claim: %d, %v", n, r.Err())
	}
}

func TestDoneRefusesTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrOversized) {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestPayloadLen(t *testing.T) {
	frame := FinishFrame(append(NewFrame(1, 1, 0), 7, 7, 7))
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"exact":     {frame, nil},
		"cut short": {frame[:len(frame)-1], ErrTruncated},
		"padded":    {append(append([]byte(nil), frame...), 0), ErrOversized},
		"no length": {frame[:4], ErrTruncated},
	} {
		r := NewReader(tc.data)
		r.U8()
		r.U8()
		r.PayloadLen()
		if !errors.Is(r.Err(), tc.want) || (tc.want == nil && r.Err() != nil) {
			t.Errorf("%s: %v, want %v", name, r.Err(), tc.want)
		}
	}
}

func TestAppendRangeChecks(t *testing.T) {
	if _, err := AppendStr8(nil, strings.Repeat("x", 256)); !errors.Is(err, ErrValue) {
		t.Errorf("256-byte str8: %v", err)
	}
	if _, err := AppendStr16(nil, strings.Repeat("x", 65536)); !errors.Is(err, ErrValue) {
		t.Errorf("64 KiB str16: %v", err)
	}
	for name, obs := range map[string]wifi.Observation{
		"rssi above int16": {MAC: "a", RSSI: math.MaxInt16 + 1},
		"rssi below int16": {MAC: "a", RSSI: math.MinInt16 - 1},
		"mac of 256 bytes": {MAC: strings.Repeat("m", 256), RSSI: -60},
	} {
		scan := wifi.Scan{{MAC: "ok", RSSI: -50}, obs}
		if err := CheckScan(scan); !errors.Is(err, ErrValue) {
			t.Errorf("CheckScan, %s: %v", name, err)
		}
		if _, err := AppendScan(nil, scan); !errors.Is(err, ErrValue) {
			t.Errorf("AppendScan, %s: %v", name, err)
		}
	}
	long := make(wifi.Scan, math.MaxUint16+1)
	if err := CheckScan(long); !errors.Is(err, ErrValue) {
		t.Errorf("CheckScan of 65536 observations: %v", err)
	}
	if _, err := AppendScan(nil, long); !errors.Is(err, ErrValue) {
		t.Errorf("AppendScan of 65536 observations: %v", err)
	}
	if err := CheckScan(long[:math.MaxUint16]); err != nil {
		t.Errorf("CheckScan of 65535 observations: %v", err)
	}
}

// FuzzBinencReader runs a fuzzer-chosen sequence of reads over
// fuzzer-chosen bytes. The input is `u8 nOps | nOps op bytes | payload`.
// Properties: no panic; the cursor only moves forward and never past the
// payload; Take hands back exactly the payload's next bytes; Count never
// admits a claim the unread bytes could not hold; the error is sticky; and
// the whole run allocates O(input) — a count prefix cannot buy memory.
func FuzzBinencReader(f *testing.F) {
	scan, _ := AppendScan(nil, wifi.Scan{{MAC: "02:4e:00:00:00:07", RSSI: -91}, {MAC: "ap", RSSI: -44}})
	f.Add(append([]byte{2, 8, 11}, scan...))
	f.Add([]byte{3, 7, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 1, 2, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5})
	f.Add([]byte{2, 5, 6, 200, 1, 2, 3})
	f.Add([]byte{1, 10, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64<<10 {
			return
		}
		nOps := int(data[0])
		if nOps > len(data)-1 {
			nOps = len(data) - 1
		}
		ops, payload := data[1:1+nOps], data[1+nOps:]

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(payload)
		var sticky error
		for _, op := range ops {
			unread, off := r.Len(), len(payload)-r.Len()
			failed := r.Err() != nil
			switch op % 12 {
			case 0:
				r.U8()
			case 1:
				r.U16()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.F64()
			case 5:
				r.Str8()
			case 6:
				r.Str16()
			case 7:
				n := int(op) * 3
				b := r.Take(n)
				if b != nil && !bytes.Equal(b, payload[off:off+n]) {
					t.Fatalf("Take(%d) at %d returned other bytes", n, off)
				}
				if b == nil && !failed && n <= unread && n > 0 {
					t.Fatalf("Take(%d) refused with %d unread", n, unread)
				}
			case 8:
				claim, minBytes := r.U32(), int(op)%7+1
				room := r.Len()
				n := r.Count(claim, minBytes)
				if int64(n)*int64(minBytes) > int64(room) {
					t.Fatalf("Count admitted %d × %d bytes with %d unread", n, minBytes, room)
				}
				if n != 0 && uint32(n) != claim {
					t.Fatalf("Count(%d) = %d", claim, n)
				}
			case 9:
				r.I16()
			case 10:
				scan := r.Scan()
				if r.Err() == nil && len(scan)*obsMinBytes > unread {
					t.Fatalf("scan of %d observations out of %d bytes", len(scan), unread)
				}
			case 11:
				r.PayloadLen()
			}
			if r.Len() < 0 || r.Len() > unread {
				t.Fatalf("op %d moved the cursor from %d unread to %d", op%12, unread, r.Len())
			}
			if failed && (r.Len() != unread || r.Err() != sticky) {
				t.Fatalf("op %d after a failure: %d → %d unread, error %v → %v", op%12, unread, r.Len(), sticky, r.Err())
			}
			sticky = r.Err()
		}
		err := r.Done()
		if (err == nil) != (sticky == nil && r.Len() == 0) {
			t.Fatalf("Done = %v with error %v and %d unread", err, sticky, r.Len())
		}
		for _, class := range []error{ErrTruncated, ErrOversized, ErrValue} {
			if sticky != nil && errors.Is(sticky, class) != errors.Is(err, class) {
				t.Fatalf("Done turned %v into %v", sticky, err)
			}
		}
		runtime.ReadMemStats(&after)
		// A scan costs 32 B per observation of at least 3 B; strings cost
		// their own length. 64× input plus slack for the one formatted error
		// is far below what a believed 2^32 count would take.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+16<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}

// TestSortedObs: AppendSortedScan writes what Reader.SortedObs accepts —
// ascending MACs, the last reading of a repeated MAC — and SortedObs refuses
// any other order, with Since keeping exactly the bytes it checked.
func TestSortedObs(t *testing.T) {
	scan := wifi.Scan{
		{MAC: "bb", RSSI: -40}, {MAC: "a", RSSI: 1 << 20}, {MAC: "", RSSI: math.MinInt16},
		{MAC: "bb", RSSI: -41}, {MAC: "a", RSSI: -7}, {MAC: "ab", RSSI: math.MaxInt16},
	}
	buf, scratch, err := AppendSortedScan([]byte{0xee}, scan, nil)
	if err != nil {
		t.Fatal(err) // the unencodable first reading of "a" is overridden, so it is not judged
	}
	if scan[0].MAC != "bb" || cap(scratch) < len(scan) {
		t.Fatal("AppendSortedScan sorted the caller's scan, or did not hand its buffer back")
	}
	r := NewReader(append(buf, 0xff))
	r.U8()
	mark := r.Mark()
	obs := r.SortedObs()
	enc := r.Since(mark)
	if r.Err() != nil || r.Len() != 1 || !bytes.Equal(enc, buf[1:]) || cap(enc) != len(enc) {
		t.Fatalf("SortedObs: err %v, %d unread, kept %x", r.Err(), r.Len(), enc)
	}
	var got wifi.Scan
	for obs.Len() > 0 {
		mac, rssi := obs.Next()
		got = append(got, wifi.Observation{MAC: string(mac), RSSI: int(rssi)})
	}
	want := wifi.Scan{{MAC: "", RSSI: math.MinInt16}, {MAC: "a", RSSI: -7}, {MAC: "ab", RSSI: math.MaxInt16}, {MAC: "bb", RSSI: -41}}
	if len(got) != len(want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read back %v, want %v", got, want)
		}
	}

	if _, _, err := AppendSortedScan(nil, wifi.Scan{{MAC: "a", RSSI: -7}, {MAC: "b", RSSI: 1 << 20}}, scratch); !errors.Is(err, ErrValue) {
		t.Fatalf("a kept reading outside int16: %v", err)
	}
	// The u16 count limits the readings kept, not the scan's length.
	long := make(wifi.Scan, math.MaxUint16+1)
	for i := range long {
		long[i] = wifi.Observation{MAC: strconv.Itoa(i % math.MaxUint16), RSSI: -i % 100}
	}
	if buf, _, err = AppendSortedScan(nil, long, scratch); err != nil {
		t.Fatalf("%d observations of %d MACs: %v", len(long), math.MaxUint16, err)
	}
	if r = NewReader(buf); r.SortedObs().Len() != math.MaxUint16 || r.Done() != nil {
		t.Fatalf("long scan read back: %v", r.Err())
	}
	long[0].MAC = "one more"
	if _, _, err := AppendSortedScan(nil, long, scratch); !errors.Is(err, ErrValue) {
		t.Fatalf("%d distinct MACs: %v", len(long), err)
	}
	for name, c := range map[string]struct {
		scan wifi.Scan
		want error
	}{
		"descending": {wifi.Scan{{MAC: "b"}, {MAC: "a"}}, ErrValue},
		"repeated":   {wifi.Scan{{MAC: "a"}, {MAC: "a"}}, ErrValue},
		"prefix":     {wifi.Scan{{MAC: "ab"}, {MAC: "a"}}, ErrValue},
	} {
		raw, err := AppendScan(nil, c.scan)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(raw)
		if obs := r.SortedObs(); !errors.Is(r.Err(), c.want) || obs.Len() != 0 || r.Since(0) != nil {
			t.Fatalf("%s: err %v, %d observations", name, r.Err(), obs.Len())
		}
		r = NewReader(raw[:len(raw)-1])
		if r.SortedObs(); !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("%s cut short: %v", name, r.Err())
		}
	}
}
