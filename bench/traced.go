package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"trajforge/internal/stats"
)

// runTraced produces one workload's per-layer numbers. It never feeds the
// end-to-end metrics: one untraced pass over a single connection gives the
// reference verdicts and the c=1 request time; then the benchmark itself
// walks the same pool serially through the same stages, timing each call
// into a layer. The two verdict sequences must be equal bit for bit.
func (b *bench) runTraced() (*report, error) {
	wl, p := b.wl, b.pool
	n := len(p.items)
	rep := &report{Workload: wl.name, Traced: true, Quick: b.quick, PoolDigest: p.digest,
		Classes: p.counts, Requests: p.requests, Passes: 1, Correct: true}

	var walBytes int64
	var servedAccepted int
	served, _, err := b.servePass(n, 1, nil, func(prov *provider, _ *passResult) {
		if prov.persist.Flush() == nil {
			st := prov.svc.Stats()
			walBytes, servedAccepted = st.Persistence.WALBytes, st.Accepted
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = served.attempted, served.failed

	tr := newTracer(p.requests * 10)
	walked, pl, walkWall, err := b.reference(n, tr)
	if err != nil {
		return nil, err
	}
	if served.failed > 0 {
		rep.Correct = false
		rep.invalid("c=1 pass: %d of %d requests failed: %v", served.failed, served.attempted, served.firstErr)
	} else if d := diffOutcomes(served.outcomes, walked); d != "" {
		rep.Correct = false
		rep.invalid("traced pipeline and c=1 pass disagree: %s", d)
	}

	var rt ratios
	rt.count(p, served.outcomes)
	wifiRatio := rep.checkDepth(wl, rt)

	// Requests the walk served (appends after an early exit are never sent).
	layers := aggregate(tr.spans)
	reqs := layers[spanRequest].calls
	clustered := wl.prof.clusterNodes > 0
	// A layer's us_per_req is its self time spread over every request, and is
	// 0 where the layer is off the request path, so the column adds up to
	// the c=1 request time; us_per_call is the mean over the calls that ran.
	// Like the end-to-end times, these are at reference host speed: the walk's
	// at the speed its probe saw, the c=1 pass's at the speed its sender saw.
	walkSpeed, c1Speed := hostSpeed(pl.probe.samples), hostSpeed(served.kernels)
	onPath := func(name string) float64 {
		if lt := layers[name]; lt != nil && reqs > 0 && name != spanRequest && !offPath(name, clustered) {
			return float64(lt.self) / 1e3 / float64(reqs) * walkSpeed
		}
		return 0
	}
	perCall := func(name string) float64 {
		if lt := layers[name]; lt != nil && lt.calls > 0 {
			return float64(lt.total) / 1e3 / float64(lt.calls) * walkSpeed
		}
		return 0
	}
	calls := func(name string) int {
		if lt := layers[name]; lt != nil {
			return lt.calls
		}
		return 0
	}

	budget := 0.0
	walkSeconds := walkWall.Seconds()
	for name, lt := range layers {
		budget += onPath(name)
		if offPath(name, clustered) {
			walkSeconds -= float64(lt.total) / 1e9
		}
	}
	c1 := stats.Mean(finishLatencies(served.lats)) * 1e3 * c1Speed
	overhead := walkSeconds*walkSpeed/(served.wall.Seconds()*c1Speed) - 1
	if overhead > maxTraceRatio {
		rep.invalid("traced pass took %.2fx the c=1 pass, limit %.2fx", 1+overhead, 1+maxTraceRatio)
	}

	historyLen, rpcs, hop := 0, 0.0, 0.0
	if wl.prof.replay {
		historyLen = len(b.w.seedHist) + pl.accepted
	}
	if clustered {
		rpcs = float64(pl.forwarded) / float64(calls(spanCFeatures))
		hop = perCall(spanCFeatures) - perCall(spanFeatures)
	}

	rep.add("server.wire.us_per_req", onPath(spanWire), "us", reqs)
	rep.add("server.wire.bytes_per_req", float64(p.bytes)/float64(p.requests), "B", p.requests)
	rep.add("server.project.us_per_req", onPath(spanProject), "us", reqs)
	rep.add("detect.rules.us_per_req", onPath(spanRules), "us", reqs)
	rep.add("detect.replay.us_per_call", perCall(spanReplay), "us", calls(spanReplay))
	rep.add("detect.replay.us_per_req", onPath(spanReplay)+onPath(spanReplayAdd), "us", reqs)
	rep.add("detect.replay.history_len", float64(historyLen), "count", 1)
	rep.add("server.depth.replay_exit_ratio", ratio(rt.replayExit, rt.verdicts), "ratio", rt.verdicts)
	rep.add("server.depth.wifi_ratio", wifiRatio, "ratio", rt.verdicts)
	rep.add("rssimap.features.us_per_call", perCall(spanFeatures), "us", calls(spanFeatures))
	rep.add("rssimap.features.calls", float64(calls(spanFeatures)), "count", reqs)
	rep.add("rssimap.features.us_per_req", onPath(spanFeatures), "us", reqs)
	rep.add("rssimap.ingest.us_per_call", perCall(spanIngest), "us", calls(spanIngest))
	rep.add("rssimap.ingest.us_per_req", onPath(spanIngest), "us", reqs)
	rep.add("rssimap.records_final", float64(pl.records), "count", 1)
	rep.add("cluster.features.us_per_call", perCall(spanCFeatures), "us", calls(spanCFeatures))
	rep.add("cluster.features.us_per_req", onPath(spanCFeatures), "us", reqs)
	rep.add("cluster.ingest.us_per_call", perCall(spanCIngest), "us", calls(spanCIngest))
	rep.add("cluster.ingest.us_per_req", onPath(spanCIngest), "us", reqs)
	rep.add("cluster.rpcs_per_call", rpcs, "count", calls(spanCFeatures))
	rep.add("cluster.hop_overhead_us", hop, "us", calls(spanCFeatures))
	rep.add("xgb.score.us_per_call", perCall(spanScore), "us", calls(spanScore))
	rep.add("xgb.score.us_per_req", onPath(spanScore), "us", reqs)
	rep.add("stream.append.us_per_chunk", perCall(spanAppend), "us", calls(spanAppend))
	rep.add("stream.close.us_per_session", perCall(spanClose), "us", calls(spanClose))
	rep.add("stream.us_per_req", onPath(spanOpen)+onPath(spanAppend)+onPath(spanClose), "us", reqs)
	rep.add("wal.append.us_per_frame", perCall(spanWAL), "us", calls(spanWAL))
	rep.add("wal.bytes_per_accept", ratio(int(walBytes), servedAccepted), "B", servedAccepted)
	rep.add("server.c1.us_per_req", c1, "us", len(served.lats))
	rep.add("server.edge.us_per_req", c1-budget, "us", len(served.lats))
	rep.add("trace.overhead_ratio", overhead, "ratio", 1)
	kernels := append(served.kernels, pl.probe.samples...)
	rep.add("host.speed", hostSpeed(kernels), "ratio", len(kernels))

	if wl.openRate > 0 {
		// The open loop adds one number of its own: how late the generator
		// ran. Its layers are those of the closed-loop walk above.
		open, _, err := b.servePass(n, senders, b.due, nil)
		if err != nil {
			return nil, err
		}
		rep.addLag(open.lags)
	}

	return rep, b.writeTrace(tr)
}

// writeTrace dumps the spans kept in memory during the walk.
func (b *bench) writeTrace(tr *tracer) error {
	data, err := json.Marshal(traceFile{
		Workload: b.wl.name, Seed: b.seed, PoolDigest: b.pool.digest,
		Requests: b.pool.requests, Spans: tr.spans,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("trace_%s.json", b.wl.name))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
