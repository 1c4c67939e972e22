package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"trajforge/internal/binenc"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

// sampleMessages returns one representative message per frame kind,
// exercising negatives, exact float bits, and empty collections.
func sampleMessages() []any {
	rec := rssimap.Record{
		Pos:  geo.Point{X: -12.53125, Y: 118.790001},
		RSSI: map[string]int{"02:4e:00:00:00:01": -61, "02:4e:00:00:00:0a": -44},
	}
	entries := []Entry{
		{Tile: [2]int{-1, 0}, Seq: 1, Rec: rec},
		{Tile: [2]int{3, -7}, Seq: 2, Rec: rssimap.Record{Pos: geo.Point{X: 0, Y: 0}, RSSI: map[string]int{}}},
	}
	assign := Assignment{
		Epoch:   9,
		Members: []string{"n1", "n2", "n3"},
		Overrides: map[[2]int]string{
			{-2, 5}: "n3",
			{1, 1}:  "n1",
		},
	}
	return []any{
		&Hello{Deadline: 1500, NodeID: "coordinator"},
		&Ack{Status: statusWrongEpoch, Epoch: 7, Msg: "node epoch 7"},
		&AddReq{Deadline: 250, Epoch: 3, Entries: entries},
		&ConfReq{Epoch: 3, Cfg: rssimap.DefaultFeatureConfig()},
		&ConfReq{Deadline: 90, Epoch: 3, Cfg: rssimap.DefaultFeatureConfig(), Points: []ConfPoint{{
			Tile: [2]int{-4, 2},
			Pos:  geo.Point{X: math.Pi, Y: -math.SmallestNonzeroFloat64},
			Scan: wifi.Scan{{MAC: "02:4e:00:00:00:01", RSSI: -60}, {MAC: "02:4e:00:00:00:01", RSSI: -60}},
		}}},
		&ConfReq{Deadline: 7, Epoch: 4, Cfg: rssimap.FeatureConfig{R: 12.5, TopK: 3, Tol: -2, IncludeNum: true}, Points: []ConfPoint{
			{Tile: [2]int{0, 0}, Pos: geo.Point{X: 1, Y: 2}, Scan: wifi.Scan{{MAC: "02:4e:00:00:00:0a", RSSI: -44}}},
			{Tile: [2]int{-2147483648, 2147483647}, Pos: geo.Point{X: -0.5, Y: 1e300}},
			{Tile: [2]int{0, 0}, Pos: geo.Point{X: 1, Y: 2}, Scan: wifi.Scan{{MAC: "", RSSI: 32767}, {MAC: "ap", RSSI: -32768}}},
		}},
		&ConfResp{Status: statusOK, Epoch: 3, Items: []ConfItem{
			{Status: statusOK, Confs: []rssimap.PointConfidence{
				{MAC: "02:4e:00:00:00:01", Phi: 0.37500000000001, Num: 12, Residual: 1.25, Heard: 3},
				{MAC: "", Phi: 0, Num: 0, Residual: 0, Heard: 0},
			}},
			{Status: statusNotOwner},
			{Status: statusOK},
		}},
		&ConfResp{Status: statusWrongEpoch, Epoch: 5, Msg: "node epoch 5"},
		&DropReq{Epoch: 4, Tile: [2]int{0, 0}},
		&DropReq{Deadline: 40, Epoch: 3, Tile: [2]int{-2147483648, 2147483647}},
		&AssignReq{Deadline: 12, Assign: assign},
		&SeqsReq{Deadline: 5},
		&SeqsResp{Status: statusOK, Epoch: 4, Tiles: []TileSeq{
			{Tile: [2]int{-1, -1}, Seq: 44}, {Tile: [2]int{-1, 0}, Seq: 2}, {Tile: [2]int{5, 5}, Seq: 1},
		}},
		&StatsReq{},
		&StatsResp{Status: statusOK, Epoch: 4, Tiles: 12, Entries: 300, WALFrames: 17, WALBytes: 8812, Generation: 2},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		frame, err := EncodeFrame(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		dec, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if reflect.TypeOf(dec) != reflect.TypeOf(msg) {
			t.Fatalf("%T decoded as %T", msg, dec)
		}
		re, err := EncodeFrame(dec)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", msg, err)
		}
		if !bytes.Equal(frame, re) {
			t.Fatalf("%T: encode(decode(frame)) != frame:\n% x\n% x", msg, frame, re)
		}
	}
}

func TestCodecTruncationRejected(t *testing.T) {
	for _, msg := range sampleMessages() {
		frame, err := EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(frame); n++ {
			if _, err := DecodeFrame(frame[:n]); err == nil {
				t.Fatalf("%T: %d-byte prefix of a %d-byte frame decoded", msg, n, len(frame))
			}
		}
		// Trailing garbage must be rejected too.
		if _, err := DecodeFrame(append(append([]byte(nil), frame...), 0)); err == nil {
			t.Fatalf("%T: frame with a trailing byte decoded", msg)
		}
	}
}

func TestCodecRejectsNonCanonical(t *testing.T) {
	t.Run("bad version", func(t *testing.T) {
		frame, _ := EncodeFrame(&SeqsReq{})
		frame[0] = 9
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		// 7, 9, 10 and 11 are the retired migration kinds (freeze, fetch,
		// its reply, install).
		for _, kind := range []byte{7, 9, 10, 11, 200} {
			frame, _ := EncodeFrame(&SeqsReq{})
			frame[1] = kind
			if _, err := DecodeFrame(frame); !errors.Is(err, ErrKind) {
				t.Fatalf("kind %d: got %v, want ErrKind", kind, err)
			}
		}
	})
	t.Run("payload length lies short", func(t *testing.T) {
		frame, _ := EncodeFrame(&Hello{NodeID: "x"})
		frame[2]-- // declare one byte less than present
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrOversized) {
			t.Fatalf("got %v, want ErrOversized", err)
		}
	})
	t.Run("unsorted rssi map", func(t *testing.T) {
		// Encode a two-AP record, then swap the MAC order on the wire.
		req := &AddReq{Epoch: 1, Entries: []Entry{{
			Tile: [2]int{0, 0}, Seq: 1,
			Rec: rssimap.Record{RSSI: map[string]int{"aa": -50, "bb": -51}},
		}}}
		frame, err := EncodeFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		a := bytes.Index(frame, []byte("aa"))
		b := bytes.Index(frame, []byte("bb"))
		if a < 0 || b < 0 || a > b {
			t.Fatalf("unexpected encoding layout")
		}
		frame[a], frame[a+1], frame[b], frame[b+1] = 'b', 'b', 'a', 'a'
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrValue) {
			t.Fatalf("got %v, want ErrValue", err)
		}
	})
	t.Run("duplicate mac", func(t *testing.T) {
		req := &AddReq{Epoch: 1, Entries: []Entry{{
			Tile: [2]int{0, 0}, Seq: 1,
			Rec: rssimap.Record{RSSI: map[string]int{"aa": -50, "ab": -51}},
		}}}
		frame, err := EncodeFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(frame, []byte("ab"))
		frame[i+1] = 'a' // now two "aa" entries
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrValue) {
			t.Fatalf("got %v, want ErrValue", err)
		}
	})
	t.Run("unsorted assignment members", func(t *testing.T) {
		req := &AssignReq{Assign: Assignment{Epoch: 1, Members: []string{"n1", "n2"}}}
		frame, err := EncodeFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(frame, []byte("n1"))
		j := bytes.Index(frame, []byte("n2"))
		frame[i+1], frame[j+1] = '2', '1'
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrValue) {
			t.Fatalf("got %v, want ErrValue", err)
		}
	})
	t.Run("oversized count claim", func(t *testing.T) {
		frame, _ := EncodeFrame(&AddReq{Epoch: 1})
		// Entry count sits in the last 4 payload bytes; claim 2^31 entries.
		frame[len(frame)-1] = 0x80
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrOversized) {
			t.Fatalf("got %v, want ErrOversized", err)
		}
	})
	t.Run("unknown feature flags", func(t *testing.T) {
		req := &ConfReq{Epoch: 1, Cfg: rssimap.DefaultFeatureConfig()}
		frame, err := EncodeFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		// The flags byte sits just before the trailing zero point count.
		frame[len(frame)-5] |= 0x80
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrValue) {
			t.Fatalf("got %v, want ErrValue", err)
		}
	})
}

func TestAssignmentOwnerStableAndComplete(t *testing.T) {
	a, err := NewAssignment([]string{"n2", "n1", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for x := -20; x < 20; x++ {
		for y := -20; y < 20; y++ {
			owner := a.Owner([2]int{x, y})
			if !a.hasMember(owner) {
				t.Fatalf("tile (%d,%d) owner %q not a member", x, y, owner)
			}
			counts[owner]++
			// Member order must not matter.
			b := a.Clone()
			b.Members = []string{"n3", "n1", "n2"}
			if got := b.Owner([2]int{x, y}); got != owner {
				t.Fatalf("owner depends on member order: %q vs %q", owner, got)
			}
		}
	}
	// Rendezvous hashing should spread 1600 tiles over all three nodes.
	for _, id := range a.Members {
		if counts[id] == 0 {
			t.Fatalf("member %q owns no tiles: %v", id, counts)
		}
	}
	// Overrides win.
	tile := [2]int{0, 0}
	a.Overrides[tile] = "n2"
	if got := a.Owner(tile); got != "n2" {
		t.Fatalf("override ignored: %q", got)
	}
	// Removing a member moves only that member's tiles.
	reduced, err := NewAssignment([]string{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for x := -20; x < 20; x++ {
		for y := -20; y < 20; y++ {
			was := Assignment{Members: []string{"n1", "n2", "n3"}}.Owner([2]int{x, y})
			now := reduced.Owner([2]int{x, y})
			if was != "n3" && was != now {
				t.Fatalf("tile (%d,%d) moved from %q to %q although %q is still a member", x, y, was, now, was)
			}
		}
	}
	if _, err := NewAssignment([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewAssignment([]string{""}); err == nil {
		t.Fatal("empty member accepted")
	}
}

// refDecodeRecord is the map-form record decoder every entry went through
// before records travelled as checked bytes, kept as the oracle for the
// wire-form decoder: the two must read the same language.
func refDecodeRecord(r *binenc.Reader) rssimap.Record {
	var rec rssimap.Record
	rec.Pos.X = r.F64()
	rec.Pos.Y = r.F64()
	n := r.ObsCount()
	rec.RSSI = make(map[string]int, n)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		mac := r.Str8()
		rssi := r.I16()
		if i > 0 && mac <= prev {
			r.Fail(fmt.Errorf("%w: RSSI map not in strict MAC order (%q after %q)", ErrValue, mac, prev))
		}
		prev = mac
		rec.RSSI[mac] = rssi
	}
	rec.Contributor = r.Str8()
	return rec
}

// refDecodeEntries decodes the entry list of an add frame with
// refDecodeRecord; ok is false for every other kind.
func refDecodeEntries(data []byte) (entries []Entry, ok bool, err error) {
	kind, r, err := header(data)
	if err != nil {
		return nil, true, err
	}
	if kind != kindAdd {
		return nil, false, nil
	}
	r.U32()
	r.U64()
	entries = make([]Entry, r.Count(r.U32(), entryMinBytes))
	for i := 0; i < len(entries) && r.Err() == nil; i++ {
		entries[i] = Entry{Tile: readTile(r), Seq: r.U64(), Rec: refDecodeRecord(r)}
	}
	return entries, true, r.Done()
}

// decodeSentinel names the typed failure an error wraps.
func decodeSentinel(err error) error {
	for _, s := range []error{ErrTruncated, ErrOversized, ErrValue, ErrVersion, ErrKind} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// sameWire compares two wire-form records by position bits (a NaN equals
// itself) and view contents.
func sameWire(a, b rssimap.WireRecord) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		reflect.DeepEqual(a.Obs, b.Obs) && a.Contributor != nil && bytes.Equal(a.Contributor, b.Contributor)
}

func FuzzClusterCodec(f *testing.F) {
	for _, msg := range sampleMessages() {
		frame, err := EncodeFrame(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion, kindAdd})
	f.Add([]byte{codecVersion, kindAdd, 0, 0, 0, 0})
	// The retired migration kinds (freeze, fetch, its reply, install), which
	// decode as unknown.
	for _, kind := range []byte{7, 9, 10, 11} {
		f.Add([]byte{codecVersion, kind, 0, 0, 0, 0})
	}
	// An add whose second MAC repeats the first, and one cut inside a MAC.
	dup, _ := EncodeFrame(&AddReq{Epoch: 1, Entries: []Entry{{Seq: 1, Rec: rssimap.Record{RSSI: map[string]int{"aa": -50, "ab": -51}}}}})
	dup[bytes.Index(dup, []byte("ab"))+1] = 'a'
	f.Add(dup)
	f.Add(dup[:bytes.Index(dup, []byte("aa"))+1])
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeFrame(data)
		// The wire-form entry decoder and the map-form one accept or reject
		// together, for the same typed reason, and agree on what they read.
		if want, ok, refErr := refDecodeEntries(data); ok {
			if decodeSentinel(err) != decodeSentinel(refErr) {
				t.Fatalf("wire-form decode says %v, map-form decode says %v", err, refErr)
			}
			if err == nil {
				got := msg.(*AddReq).Entries
				if len(got) != len(want) {
					t.Fatalf("wire-form decode reads %d entries, map-form %d", len(got), len(want))
				}
				for i := range got {
					if got[i].enc == nil || len(got[i].Rec.RSSI) != 0 {
						t.Fatalf("entry %d decoded without canonical bytes, or with a map", i)
					}
					// The views kept at decode time are the ones over enc.
					if w := readWire(binenc.NewReader(got[i].enc)); !sameWire(got[i].wire, w) {
						t.Fatalf("entry %d carries views %+v, its bytes read %+v", i, got[i].wire, w)
					}
					// Fingerprints compare position bits, so a NaN equals itself.
					if g, w := entryFingerprint(got[i]), entryFingerprint(want[i]); got[i].Tile != want[i].Tile || g != w {
						t.Fatalf("entry %d:\nwire-form %v %s\n map-form %v %s", i, got[i].Tile, g, want[i].Tile, w)
					}
				}
			}
		}
		if err != nil {
			return
		}
		// Decoded entries hold only their bytes, so this also shows an
		// accepted add re-encodes to its input from Entry.enc alone.
		re, err := EncodeFrame(msg)
		if err != nil {
			t.Fatalf("accepted frame refuses to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in % x\nout % x", data, re)
		}
	})
}

// TestRegenClusterCodecCorpus rewrites the checked-in fuzz corpus from the
// current encoders. Skipped unless REGEN_CORPUS=1 — run it after a wire
// format change so the corpus keeps seeding real frames.
func TestRegenClusterCodecCorpus(t *testing.T) {
	if os.Getenv("REGEN_CORPUS") == "" {
		t.Skip("set REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzClusterCodec")
	}
	entries := map[string][]byte{}
	for _, msg := range sampleMessages() {
		frame, err := EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		name := "seed-" + reflect.TypeOf(msg).Elem().Name()
		for k := 2; entries[name] != nil; k++ {
			name = fmt.Sprintf("seed-%s-%d", reflect.TypeOf(msg).Elem().Name(), k)
		}
		entries[name] = frame
	}
	add, _ := EncodeFrame(&AddReq{Epoch: 1, Entries: []Entry{{Seq: 1, Rec: rssimap.Record{RSSI: map[string]int{"aa": -50}}}}})
	entries["seed-truncated"] = add[:len(add)/2]
	bad := append([]byte(nil), add...)
	bad[0] = 99
	entries["seed-bad-version"] = bad
	entries["seed-header-only"] = []byte{codecVersion, kindHello, 0, 0, 0, 0}
	dir := filepath.Join("testdata", "fuzz", "FuzzClusterCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
