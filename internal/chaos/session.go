package chaos

import (
	"fmt"
	"math"
	"time"

	"trajforge/internal/fsx/faultfs"
	"trajforge/internal/stream"
	"trajforge/internal/wifi"
)

// This file is the streaming-session scenario on the single-process
// fixture: the fixed workload opens concurrent verification sessions,
// appends their chunks interleaved (one batch upload mixed in mid-stream),
// and closes them in order, flushing the WAL after every operation so each
// open, chunk, and verdict has a definite acknowledged-durable point. On
// top of the fixture's recovery check (ledger prefix covering every
// flushed verdict, bit-identical probe after Service.Restore), recovery
// must show:
//
//  1. No acknowledged operation lost: every flushed-but-unresolved session
//     is recovered in flight with at least its flushed chunks, and a
//     session whose close verdict was recovered is never also in flight.
//
//  2. Bit-identical buffers: every recovered in-flight session's buffered
//     points and scans equal the reference trajectory prefix bit-for-bit.

const (
	sessionCount  = 4
	chunksPerSess = 3
	forgedSession = 2 // this session streams the forged RSSI signature
	sessionPoints = 18
)

// sessionScript is one scripted session of the workload: its full upload,
// the chunk boundaries, and the reference outcome (how many chunks the
// crash-free run applied before an early exit).
type sessionScript struct {
	id      string
	upload  *wifi.Upload
	chunks  [][2]int // [lo, hi) per chunk
	applied int      // chunks applied in the reference run
}

// sessionScenario is the session workload on the fixture. The fixture's
// verdict sequence is in journal order: the batch upload's verdict first
// (it lands in the WAL between chunk rounds), then the session closes in
// close order.
type sessionScenario struct {
	*fixture
	scripts []*sessionScript
	batch   *wifi.Upload // one batch upload interleaved between chunk rounds
}

// sessionAcks records which operations of one crash run were acknowledged
// durable (journaled and flushed) before the filesystem died.
type sessionAcks struct {
	opens    []bool // per session: open frame flushed
	chunks   []int  // per session: chunk frames flushed
	verdicts int    // journal-order verdicts flushed (batch + closes)
}

// newSessionScenario trains the detector, scripts the workload, and runs
// the crash-free reference pass that fixes per-session outcomes, the
// verdict sequence, and the per-prefix feature vectors. The stream
// thresholds are low enough that the forged session's early exit fires
// mid-stream, so the rejected-without-pipeline close path is part of the
// crash surface.
func newSessionScenario(seed int64) (*sessionScenario, error) {
	f, err := newFixture(seed, sessionPoints, &stream.Config{Window: 8, EarlyExit: 0.5, EarlyExitAfter: 8}, nil)
	if err != nil {
		return nil, err
	}
	sc := &sessionScenario{fixture: f, scripts: make([]*sessionScript, sessionCount)}
	for i := range sc.scripts {
		u, err := walkUpload(seed+int64(850+i), sessionPoints)
		if err != nil {
			return nil, err
		}
		if i == forgedSession {
			forgeScans(u)
		}
		n := u.Traj.Len()
		s := &sessionScript{id: fmt.Sprintf("chaos-sess-%02d", i), upload: u}
		for c := 0; c < chunksPerSess; c++ {
			s.chunks = append(s.chunks, [2]int{c * n / chunksPerSess, (c + 1) * n / chunksPerSess})
		}
		sc.scripts[i] = s
	}
	if sc.batch, err = walkUpload(seed+920, sessionPoints); err != nil {
		return nil, err
	}

	err = f.reference(func(c *boundClient, verdict func(bool) error) error {
		return sc.runOps(c, true, func(op string, sess int, accepted bool) error {
			switch op {
			case "chunk":
				sc.scripts[sess].applied++
			case "batch", "close":
				return verdict(accepted)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if sc.scripts[forgedSession].applied == chunksPerSess {
		return nil, fmt.Errorf("chaos: forged session never early-exited")
	}
	return sc, nil
}

// runOps executes the fixed operation sequence against one service and
// invokes ack after every server-acknowledged operation. The reference
// pass (ref=true) records outcomes into the scripts; crash runs check the
// live answers against them — the in-memory pipeline never sees the disk
// fault, so any deviation is an invariant violation in itself.
func (sc *sessionScenario) runOps(client *boundClient, ref bool, ack func(op string, sess int, accepted bool) error) error {
	client.stub.prob = 0.9
	for i, s := range sc.scripts {
		got, err := client.client.OpenSession(s.id, "")
		if err != nil {
			return fmt.Errorf("open session %d: %w", i, err)
		}
		if got != s.id {
			return fmt.Errorf("open session %d: id %q, want %q", i, got, s.id)
		}
		if err := ack("open", i, false); err != nil {
			return err
		}
	}
	rejected := make([]bool, len(sc.scripts))
	for round := 0; round < chunksPerSess; round++ {
		for i, s := range sc.scripts {
			if rejected[i] {
				continue
			}
			c := s.chunks[round]
			a, err := client.client.AppendSession(s.id, round, s.upload, c[0], c[1])
			if err != nil {
				return fmt.Errorf("append session %d chunk %d: %w", i, round, err)
			}
			if err := ack("chunk", i, false); err != nil {
				return err
			}
			if a.Rejected {
				rejected[i] = true
			}
			// The reference pass fixed where the early exit fires; a crash
			// run deviating means the disk fault leaked into scoring.
			if !ref {
				wantRejected := round+1 == s.applied && s.applied < chunksPerSess
				if a.Rejected != wantRejected {
					return fmt.Errorf("session %d chunk %d: rejected=%v deviates from reference", i, round, a.Rejected)
				}
			}
		}
		if round == 0 {
			v, err := client.client.Upload(sc.batch)
			if err != nil {
				return fmt.Errorf("interleaved batch upload: %w", err)
			}
			if !ref && v.Accepted != sc.verdicts[0] {
				return fmt.Errorf("batch verdict %v, want %v", v.Accepted, sc.verdicts[0])
			}
			if err := ack("batch", -1, v.Accepted); err != nil {
				return err
			}
		}
	}
	for i, s := range sc.scripts {
		v, err := client.client.CloseSession(s.id)
		if err != nil {
			return fmt.Errorf("close session %d: %w", i, err)
		}
		if !ref && v.Accepted != sc.verdicts[1+i] {
			return fmt.Errorf("session %d verdict %v, want %v", i, v.Accepted, sc.verdicts[1+i])
		}
		if err := ack("close", i, v.Accepted); err != nil {
			return err
		}
	}
	return nil
}

func (sc *sessionScenario) victims() []string { return []string{""} }

func (sc *sessionScenario) run(dir, _ string, fs *faultfs.FS) (sessionAcks, error) {
	acks := sessionAcks{opens: make([]bool, len(sc.scripts)), chunks: make([]int, len(sc.scripts))}
	err := sc.workload(dir, fs, func(c *boundClient, durable func() bool) error {
		return sc.runOps(c, false, func(op string, sess int, _ bool) error {
			if !durable() {
				return nil
			}
			switch op {
			case "open":
				acks.opens[sess] = true
			case "chunk":
				acks.chunks[sess]++
			case "batch", "close":
				acks.verdicts++
			}
			return nil
		})
	})
	if err == nil && !fs.Faulted() && acks.verdicts != len(sc.verdicts) {
		err = fmt.Errorf("fault-free run acknowledged %d/%d verdicts", acks.verdicts, len(sc.verdicts))
	}
	return acks, err
}

func (sc *sessionScenario) check(dir string, acks sessionAcks, rep *Report) error {
	state, err := sc.recover(dir, acks.verdicts, rep)
	if err != nil {
		return fmt.Errorf("acked %d verdicts: %w", acks.verdicts, err)
	}
	if len(state.Sessions) > 0 {
		rep.InFlightRecoveries++
	}

	// Invariant 1: acknowledged chunks of unresolved sessions survived, and
	// resolved sessions are not also in flight. Session i's close is
	// journal verdict 1+i (the batch verdict is verdict 0).
	total := state.Accepted + state.Rejected
	byID := make(map[string]stream.SessionState, len(state.Sessions))
	for _, ss := range state.Sessions {
		byID[ss.ID] = ss
	}
	for i, s := range sc.scripts {
		ss, live := byID[s.id]
		if closed := total >= 2+i; closed {
			if live {
				return fmt.Errorf("session %d resolved by verdict %d yet recovered in flight", i, 1+i)
			}
			continue
		}
		if acks.opens[i] && !live {
			return fmt.Errorf("session %d acknowledged open lost", i)
		}
		if !live {
			continue
		}
		if ss.Chunks < acks.chunks[i] {
			return fmt.Errorf("session %d recovered %d chunks, %d were acknowledged durable",
				i, ss.Chunks, acks.chunks[i])
		}
		if ss.Chunks > s.applied {
			return fmt.Errorf("session %d recovered %d chunks, workload applied %d",
				i, ss.Chunks, s.applied)
		}
		// Invariant 2: the recovered buffer is the reference trajectory
		// prefix, bit-for-bit.
		n := 0
		for _, c := range s.chunks[:ss.Chunks] {
			n += c[1] - c[0]
		}
		if len(ss.Points) != n || len(ss.Scans) != n {
			return fmt.Errorf("session %d recovered %d points / %d scans, want %d",
				i, len(ss.Points), len(ss.Scans), n)
		}
		for j := 0; j < n; j++ {
			// The buffered point is what the wire delivered: the plane
			// coordinate after a lat/lon round trip, at millisecond time
			// resolution — deterministic, so still an exact-bits check.
			want := s.upload.Traj.Points[j]
			wantPos := sc.proj.ToPlane(sc.proj.ToLatLon(want.Pos))
			wantTime := time.UnixMilli(want.Time.UnixMilli())
			if math.Float64bits(ss.Points[j].Pos.X) != math.Float64bits(wantPos.X) ||
				math.Float64bits(ss.Points[j].Pos.Y) != math.Float64bits(wantPos.Y) ||
				!ss.Points[j].Time.Equal(wantTime) {
				return fmt.Errorf("session %d point %d differs from reference", i, j)
			}
			if len(ss.Scans[j]) != len(s.upload.Scans[j]) {
				return fmt.Errorf("session %d scan %d differs from reference", i, j)
			}
			for k, ob := range ss.Scans[j] {
				if ob != s.upload.Scans[j][k] {
					return fmt.Errorf("session %d scan %d observation %d differs", i, j, k)
				}
			}
		}
	}
	return nil
}

// RunSessions explores every crash point of the fixed streaming-session
// workload.
func RunSessions(opts Options) (*Report, error) {
	sc, err := newSessionScenario(opts.Seed)
	if err != nil {
		return nil, err
	}
	return explore("sessions", sc, opts)
}
