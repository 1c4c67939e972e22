// Command bench is the repository's benchmark: six workloads against fresh
// in-process providers over loopback HTTP, eight end-to-end metrics each,
// and a separate traced run that attributes request time to layers. See
// README.md in this directory; BENCHMARK.json at the repository root is the
// machine-readable contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// hostInfo is the metadata a result is meaningless without.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Senders    int    `json:"senders"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Senders: senders, Kernel: "unknown", Commit: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// A source export is not a git checkout; the commit then stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// resultFile is bench/out/result.json (result_trace.json for traced runs).
type resultFile struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Reportable bool      `json:"reportable"`
	Host       hostInfo  `json:"host"`
	Reports    []*report `json:"reports"`
}

// contractLine is the last line of standard output when one workload runs.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the request pool and the arrival schedule")
	seconds := fs.Float64("seconds", 15, "measured time per workload; passes repeat until it is reached")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	quick := fs.Bool("quick", false, "a tenth of each pool, one pass, floors relaxed; not reportable")
	selfcheck := fs.Bool("selfcheck", false, "measure twice back to back and fail if the medians differ by more than the bounds")
	outDir := fs.String("out", "out", "directory for result, trace and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-selfcheck]")
		return 2
	}
	var names []string
	if *name == "all" {
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	} else if _, ok := findWorkload(*name); ok {
		names = []string{*name}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	cfg := settings{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	if *selfcheck {
		return cfg.selfcheck(names, stdout, stderr)
	}
	reports, ok := cfg.runAll(names, *trace == 1, stdout, stderr)
	if reports == nil {
		return 1
	}
	file := "result.json"
	if *trace == 1 {
		file = "result_trace.json"
	}
	res := resultFile{Seed: *seed, Seconds: *seconds, Reportable: !*quick && ok, Host: readHostInfo(), Reports: reports}
	if err := writeJSONFile(filepath.Join(*outDir, file), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	if len(reports) == 1 {
		rep := reports[0]
		line := contractLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
			Metrics: make(map[string]contractValue)}
		for _, m := range rep.Metrics {
			if rep.Traced || isEndToEnd(m.Name) {
				line.Metrics[m.Name] = contractValue{Value: m.Value, Unit: m.Unit}
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	return 0
}

// runAll measures the named workloads in order and prints one line per
// metric. ok is false when any run tripped a validity guard or failed its
// output check; such a run is reported as invalid, not as a measurement.
func (cfg settings) runAll(names []string, traced bool, stdout, stderr io.Writer) (reports []*report, ok bool) {
	ok = true
	for _, name := range names {
		wl, _ := findWorkload(name)
		rep, err := cfg.runOne(wl, traced)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return nil, false
		}
		reports = append(reports, rep)
		printReport(stdout, rep)
		if len(rep.Invalid) > 0 {
			ok = false
			for _, why := range rep.Invalid {
				fmt.Fprintf(stderr, "bench: %s: INVALID: %s\n", name, why)
			}
		}
	}
	return reports, ok
}

func (cfg settings) runOne(wl workload, traced bool) (*report, error) {
	b, err := newBench(cfg, wl)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if traced {
		return b.runTraced()
	}
	return b.runEndToEnd()
}

func printReport(w io.Writer, rep *report) {
	label := ""
	if rep.Quick {
		label = " (quick: not reportable)"
	}
	fmt.Fprintf(w, "# %s%s: pool_digest=%s items=%d requests/pass=%d passes=%d honest=%d nav_attack=%d spoof_jump=%d\n",
		rep.Workload, label, rep.PoolDigest, rep.Classes[classHonest]+rep.Classes[classNav]+rep.Classes[classSpoof],
		rep.Requests, rep.Passes, rep.Classes[classHonest], rep.Classes[classNav], rep.Classes[classSpoof])
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", rep.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
}
