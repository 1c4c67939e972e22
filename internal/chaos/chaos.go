// Package chaos is a crash-point explorer for the durability layers of the
// verification server and the shard cluster. One engine (explore) replays a
// scenario's fixed, seeded workload over and over, each time crashing one
// victim's filesystem (via fsx/faultfs) at a different recorded mutation
// site — every write, fsync, truncate, rename, and directory sync the
// victim performs — and then hands the surviving files to the scenario's
// recovery check on a healthy filesystem.
//
// Write faults use torn mode, so a crash mid-frame leaves the seeded
// partial write a real power cut would — the torn-tail recovery path is
// exercised, not just clean truncation.
//
// The scenarios stand on two fixtures. The single-process fixture
// (single.go) is a verification service over one data directory: Run,
// RunTrust, RunSessions and the scripted RunWedge drive it, and all of
// them share one recovery check — the recovered verdict ledger is a prefix
// of the reference sequence, every acknowledged verdict survived, and the
// rebuilt RSSI store answers the feature probe with float64 bits equal to a
// run that never crashed. The cluster fixture (cluster.go) is a coordinator
// over loopback shard nodes: RunCluster and RunClusterReplicated kill a
// node, RunCoordinator kills the coordinator's own journal.
package chaos

import (
	"errors"
	"fmt"
	"path/filepath"

	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
)

// Options configures one exploration run.
type Options struct {
	// Seed drives every random choice: the bootstrap store or record
	// workload, the trajectories, and torn-write prefix lengths. Same seed,
	// same sites, same outcome.
	Seed int64
	// Dir is the scratch directory; each crash point gets a subdirectory.
	Dir string
	// Logf, when set, receives progress lines (e.g. testing.T.Logf).
	Logf func(format string, args ...any)
}

// logger refuses options without a scratch directory and returns the
// progress logger, a no-op when Logf is unset.
func (o Options) logger() (func(format string, args ...any), error) {
	if o.Dir == "" {
		return nil, errors.New("chaos: Options.Dir is required")
	}
	if o.Logf == nil {
		return func(string, ...any) {}, nil
	}
	return o.Logf, nil
}

// Report summarises an exploration. Sites is tallied by the engine; every
// other counter belongs to the scenarios named on it and stays zero for
// the rest.
type Report struct {
	// Sites is the number of mutation sites the counting passes found,
	// summed over victims; every one was explored as a crash point.
	Sites int

	// Single-process scenarios (Run, RunTrust, RunSessions, RunWedge).

	// EmptyRecoveries counts crash points that recovered to an empty state
	// (crash before the bootstrap snapshot committed).
	EmptyRecoveries int
	// FullRecoveries counts crash points that recovered the entire verdict
	// ledger (crash after the last verdict was acknowledged).
	FullRecoveries int
	// MaxAcked is the largest acknowledged-verdict count observed across
	// crash points; for RunWedge, the count its one run ended with.
	MaxAcked int
	// InFlightRecoveries counts crash points that recovered at least one
	// streaming session still in flight: chunks journaled, no verdict yet.
	InFlightRecoveries int

	// RunWedge only.

	// WedgedAccepted counts uploads still acknowledged with 200 between the
	// wedge and the breaker trip — recorded in memory, their WAL frames
	// lost, repaired by the heal compaction.
	WedgedAccepted int
	// Shed counts upload attempts refused with 503 while degraded.
	Shed int
	// Opens and Closes are the breaker's counters at the end of the run;
	// Opens > Closes means the breaker re-opened on failed probes while the
	// disk was still wedged.
	Opens, Closes int64

	// Node-crash scenarios (RunCluster, RunClusterReplicated).

	// Committed and Aborted count how the mid-workload migration ended
	// across crash points; both outcomes must appear, or the crash surface
	// missed one side of the protocol.
	Committed, Aborted int
	// LiveProbeMatches counts crash points where the post-crash,
	// pre-recovery probes all answered — served by surviving nodes, failing
	// over to follower replicas when replicated — and matched the
	// reference bits.
	LiveProbeMatches int
	// RepairMatches counts crash points where the post-Rereplicate probes
	// all answered and matched the reference bits.
	RepairMatches int
	// Repairs counts completed Rereplicate calls across crash points.
	Repairs uint64
	// ReplicaReads totals follower-served queries across crash points —
	// proof the failover path actually ran.
	ReplicaReads uint64

	// RunCoordinator only.

	// FailedClosed counts sites where the dying journal caused at least one
	// batch to be refused (acked < workload) — proof Add fails closed.
	FailedClosed int
	// BootstrapDeaths counts sites where the coordinator crashed before it
	// even came up (NewStore failed); the standby must still take over.
	BootstrapDeaths int
	// DegradedProbeMatches counts sites where probes against the degraded
	// coordinator answered and matched the acked-prefix reference bits.
	DegradedProbeMatches int
	// TailBatches totals the batches re-fed after takeover across sites —
	// everything else came back from the coordinator WAL.
	TailBatches int
}

// scenario is what an explorer supplies to the engine; O is whatever one
// workload execution observed and its recovery check needs.
type scenario[O any] interface {
	// victims lists, in exploration order, whose filesystem gets crashed;
	// a single-victim scenario returns one empty name.
	victims() []string
	// run executes the fixed workload under dir with the victim's storage
	// on fs. Faults never abort the workload — a real server keeps serving
	// from memory while its disk is gone — so run fails only on an
	// invariant violation visible while the fault is live, or when fs never
	// faulted and the workload still did not complete in full: that is what
	// validates the counting pass. An observation that holds live
	// resources has a Close method; the engine calls it after check.
	run(dir, victim string, fs *faultfs.FS) (O, error)
	// check recovers from dir on a healthy filesystem, asserts the
	// recovery invariants against obs, and tallies the crash point.
	check(dir string, obs O, rep *Report) error
}

// explore is the crash-point engine. Per victim it enumerates the mutation
// sites with a counting pass on a recording, fault-free filesystem, then
// replays the workload once per site with a crashing torn-write fault
// there and drives the scenario's recovery check. The first invariant
// violation is returned, annotated with the fault site that provoked it.
func explore[O any](name string, sc scenario[O], opts Options) (*Report, error) {
	logf, err := opts.logger()
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, victim := range sc.victims() {
		where := name
		if victim != "" {
			where += " victim " + victim
		}
		counter := faultfs.New(fsx.OS, faultfs.Options{})
		obs, err := sc.run(filepath.Join(opts.Dir, victim, "count"), victim, counter)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: counting pass: %w", where, err)
		}
		release(obs)
		plan := counter.Ops()
		logf("chaos: %s: %d mutation sites", where, len(plan))

		for site := 1; site <= len(plan); site++ {
			fs := faultfs.New(fsx.OS, faultfs.Options{
				Seed:   opts.Seed ^ int64(site),
				FailAt: site,
				Mode:   faultfs.FaultTorn, // writes tear; other kinds plain-fail
				Crash:  true,
			})
			dir := filepath.Join(opts.Dir, victim, fmt.Sprintf("site-%03d", site))
			if err := crashPoint(sc, dir, victim, fs, rep); err != nil {
				op := plan[site-1]
				return rep, fmt.Errorf("chaos: %s: site %d (%s %s): %w", where, site, op.Kind, filepath.Base(op.Path), err)
			}
			rep.Sites++
		}
	}
	logf("chaos: %s: explored %d crash points: %+v", name, rep.Sites, *rep)
	return rep, nil
}

// crashPoint runs one site: the workload on the faulting filesystem, the
// assertion that the planned fault fired, then the recovery check.
func crashPoint[O any](sc scenario[O], dir, victim string, fs *faultfs.FS, rep *Report) error {
	obs, err := sc.run(dir, victim, fs)
	if err != nil {
		return err
	}
	defer release(obs)
	if !fs.Faulted() {
		return errors.New("fault never fired")
	}
	return sc.check(dir, obs, rep)
}

// release closes an observation that holds live resources.
func release(obs any) {
	if c, ok := obs.(interface{ Close() }); ok {
		c.Close()
	}
}
