package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// bound says how far an end-to-end metric's median may move the wrong way
// before it counts as a regression: a share of the first median, or — for
// fail_ratio, which is 0 on a healthy run — an absolute step.
type bound struct {
	name     string
	unit     string
	higher   bool // higher is better
	limit    float64
	absolute bool
}

// endToEnd is the benchmark's own copy of BENCHMARK.json's end_to_end list
// (a test keeps the two equal) plus fail_ratio, which the contract carries
// as attempted/failed instead of as a metric.
var endToEnd = []bound{
	{name: "ops_per_s", unit: "req/s", higher: true, limit: 0.25},
	{name: "p50_ms", unit: "ms", limit: 0.25},
	{name: "p99_ms", unit: "ms", limit: 0.25},
	{name: "honest_accept_ratio", unit: "ratio", higher: true, limit: 0.20},
	{name: "forgery_catch_ratio", unit: "ratio", higher: true, limit: 0.05},
	{name: "live_heap_mb", unit: "MiB", limit: 0.15},
	{name: "setup_s", unit: "s", limit: 0.25},
	{name: "fail_ratio", unit: "ratio", limit: 0.001, absolute: true},
}

// isEndToEnd reports whether a metric belongs on the contract line.
func isEndToEnd(name string) bool {
	for _, b := range endToEnd {
		if b.name == name {
			return !b.absolute
		}
	}
	return false
}

// worsening is how far `second` moved the wrong way from `first`, in the
// bound's own terms (share of first, or absolute); negative is better.
func (b bound) worsening(first, second float64) float64 {
	d := second - first
	if b.higher {
		d = -d
	}
	if b.absolute {
		return d
	}
	if first == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(first)
}

// checkRow is one metric of one workload in selfcheck.json.
type checkRow struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit"`
	First     float64 `json:"first"`
	Second    float64 `json:"second"`
	Worsening float64 `json:"worsening"`
	Bound     float64 `json:"bound"`
	Absolute  bool    `json:"absolute,omitempty"`
	Within    bool    `json:"within"`
}

type selfcheckFile struct {
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Host    hostInfo   `json:"host"`
	Pass    bool       `json:"pass"`
	Rows    []checkRow `json:"rows"`
}

// selfcheck measures the end-to-end set twice back to back on the same
// code and fails if any metric's two medians are further apart than its
// bound in either direction — the evidence that a later difference of that
// size is a change and not noise.
func (cfg settings) selfcheck(names []string, stdout, stderr io.Writer) int {
	first, ok1 := cfg.runAll(names, false, stdout, stderr)
	second, ok2 := cfg.runAll(names, false, stdout, stderr)
	if first == nil || second == nil {
		return 1
	}
	out := selfcheckFile{Seed: cfg.seed, Seconds: cfg.seconds, Host: readHostInfo(), Pass: ok1 && ok2}
	for i, rep := range first {
		wl, _ := findWorkload(rep.Workload)
		for _, bd := range endToEnd {
			x, y := rep.get(bd.name), second[i].get(bd.name)
			worse := math.Max(bd.worsening(x, y), bd.worsening(y, x))
			row := checkRow{Workload: rep.Workload, Metric: bd.name, Unit: bd.unit, First: x, Second: y,
				Worsening: worse, Bound: bd.limit, Absolute: bd.absolute, Within: worse <= bd.limit}
			out.Rows = append(out.Rows, row)
			verdict := "ok"
			if !row.Within && !wl.gated() {
				verdict = "outside (not gated)"
			} else if !row.Within {
				verdict = "OUTSIDE"
				out.Pass = false
			}
			fmt.Fprintf(stdout, "selfcheck %s %s first=%.6g second=%.6g diff=%.4f bound=%.4g %s\n",
				row.Workload, row.Metric, x, y, worse, bd.limit, verdict)
		}
	}
	if err := writeJSONFile(filepath.Join(cfg.outDir, "selfcheck.json"), out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !out.Pass {
		fmt.Fprintln(stderr, "bench: selfcheck: two runs of the same code disagree beyond the bounds")
		return 1
	}
	return 0
}
