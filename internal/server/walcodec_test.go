package server

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWALPayloadCodec feeds arbitrary bytes to the decoders of every WAL
// payload the provider writes — bytes that come off disk at every restart.
// The first input byte picks the frame type. Properties: no panic; whatever
// decodes also re-encodes, and decoding that gives the same value again;
// and where the format has one encoding per value (v2 uploads, session
// frames in the shape the encoder emits) the re-encoding is the input.
func FuzzWALPayloadCodec(f *testing.F) {
	for typ, goldens := range map[byte][]string{
		frameAccepted:       {goldenUploadV2, goldenUploadV2Anon},
		frameSessionOpen:    {goldenSessionOpen, goldenSessionOpenAs},
		frameSessionVerdict: {goldenVerdictAccept, goldenVerdictReject},
		frameSessionReject:  {goldenSessionReject},
	} {
		for _, g := range goldens {
			payload := unhex(f, g)
			f.Add(append([]byte{typ}, payload...))
			f.Add(append([]byte{typ}, payload[:len(payload)/2]...))
		}
	}
	anon := unhex(f, goldenUploadV2Anon)
	f.Add(append([]byte{frameSessionChunk, 1}, anon[1:len(anon)-10]...)) // a v1 frame
	f.Add([]byte{frameAccepted, 2, 1, 0, 0, 0xff, 0xff, 0xff, 0xff})     // 2^32 points claimed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ, payload := data[0], data[1:]
		switch typ {
		case frameAccepted, frameSessionChunk:
			u, pFake, err := decodeUpload(payload)
			if err != nil {
				return
			}
			if len(u.Scans) != len(u.Traj.Points) || 26*len(u.Traj.Points) > len(payload) {
				t.Fatalf("%d points, %d scans out of %d bytes", len(u.Traj.Points), len(u.Scans), len(payload))
			}
			again, err := appendUpload(nil, u, pFake)
			if err != nil {
				t.Fatalf("decoded upload does not re-encode: %v", err)
			}
			if payload[0] == uploadCodecVersion && !bytes.Equal(again, payload) {
				t.Fatalf("v2 upload re-encoded differently:\n% x\n% x", payload, again)
			}
			u2, pFake2, err := decodeUpload(again)
			if err != nil {
				t.Fatalf("re-encoded upload does not decode: %v", err)
			}
			final, err := appendUpload(nil, u2, pFake2)
			if err != nil || !bytes.Equal(final, again) {
				t.Fatalf("upload not stable under decode/encode: %v", err)
			}
		case frameSessionOpen:
			id, mode, contributor, err := decodeSessionOpen(payload)
			if err != nil || id == "" { // the encoder refuses an empty id
				return
			}
			again, err := appendSessionOpen(nil, id, mode, contributor)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("session open re-encoded differently (%v):\n% x\n% x", err, payload, again)
			}
		case frameSessionVerdict:
			id, outcome, pFake, err := decodeSessionVerdict(payload)
			if err != nil || id == "" {
				return
			}
			again, err := appendSessionVerdict(nil, id, outcome, pFake)
			if err != nil {
				t.Fatal(err)
			}
			id2, outcome2, pFake2, err := decodeSessionVerdict(again)
			if err != nil || id2 != id || outcome2 != outcome {
				t.Fatalf("session verdict changed: %q/%d → %q/%d (%v)", id, outcome, id2, outcome2, err)
			}
			// Only accepted verdicts carry the score.
			if outcome == sessionAccepted && math.Float64bits(pFake2) != math.Float64bits(pFake) {
				t.Fatalf("session verdict score %v → %v", pFake, pFake2)
			}
			hasScore := len(payload) == 2+len(id)+1+8
			if hasScore == (outcome == sessionAccepted) && !bytes.Equal(again, payload) {
				t.Fatalf("session verdict re-encoded differently:\n% x\n% x", payload, again)
			}
		case frameSessionReject:
			id, err := decodeSessionReject(payload)
			if err != nil || id == "" {
				return
			}
			again, err := appendSessionReject(nil, id)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("session reject re-encoded differently (%v)", err)
			}
		}
	})
}
