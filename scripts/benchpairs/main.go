// Command benchpairs runs the repository's benchmark on a parent revision
// and on this checkout in alternating pairs and reports, per metric, what
// the choosing-metrics guide asks of a performance claim: each side's median
// and quartiles, who won each pair, and whether the change wins at least
// nine pairs in ten with a median gap wider than the parent's own quartile
// spread.
//
//	go run ./scripts/benchpairs -workload deep_cluster -parent HEAD~1 [-n 10] [-trace 0]
//
// The parent is exported with `git archive` into a temporary directory (no
// worktree is registered) and both trees are driven exactly as the gate
// drives them: `bash bench/run.sh --workload W --seed S --seconds 15 --trace
// T`, seeds 1 … n, the side that goes first alternating. Every run is printed
// as it finishes. Metric directions and regression bounds are
// read from BENCHMARK.json. Standard library only.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// metricSpec is one BENCHMARK.json metric declaration.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // zero for per-layer metrics
}

// result is the contract line bench/run.sh ends its standard output with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run() error {
	workload := flag.String("workload", "", "benchmark workload (required)")
	parent := flag.String("parent", "", "git revision to compare this checkout against (required)")
	pairs := flag.Int("n", 10, "number of parent/change pairs")
	trace := flag.Int("trace", 0, "1 compares the traced per-layer metrics instead")
	flag.Parse()
	if *workload == "" || *parent == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		return errors.New("need -workload and -parent")
	}

	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("not in a git checkout: %w", err)
	}
	change := strings.TrimSpace(string(top))
	specs, err := readSpecs(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	parentDir, err := os.MkdirTemp("", "benchpairs-parent-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	if err := exportRevision(change, *parent, parentDir); err != nil {
		return err
	}

	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", change}}
	var values [2]map[string][]float64 // side → metric → one value per completed pair
	values[0], values[1] = map[string][]float64{}, map[string][]float64{}
	broken := 0
	for i := 0; i < *pairs; i++ {
		seed := i + 1
		var got [2]*result
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // even pairs run the parent first, odd pairs the change
			res, err := benchRun(sides[side].dir, *workload, seed, *trace)
			if err != nil {
				fmt.Printf("pair %d seed %d %s: FAILED: %v\n", i+1, seed, sides[side].name, err)
				continue
			}
			got[side] = res
			fmt.Printf("pair %d seed %d %s:%s\n", i+1, seed, sides[side].name, runLine(res, specs))
		}
		if got[0] == nil || got[1] == nil {
			broken++
			continue
		}
		for side, res := range got {
			for name, m := range res.Metrics {
				values[side][name] = append(values[side][name], m.Value)
			}
		}
	}

	fmt.Printf("\n%s, %d pairs (%d without a result on both sides), trace %d, parent %s\n",
		*workload, *pairs, broken, *trace, *parent)
	fmt.Println("metric | parent median (q1–q3) | change median (q1–q3) | change vs parent | wins/ties/losses | verdict")
	fmt.Println("---|---|---|---|---|---")
	for _, spec := range specs {
		p, c := values[0][spec.Name], values[1][spec.Name]
		if len(p) == 0 || len(p) != len(c) {
			continue
		}
		fmt.Println(summaryRow(spec, p, c))
	}
	if broken > 0 {
		return fmt.Errorf("%d of %d pairs had a run without a result", broken, *pairs)
	}
	return nil
}

// readSpecs lists the metrics BENCHMARK.json declares, end-to-end first.
func readSpecs(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(decl.EndToEnd, decl.PerLayer...), nil
}

// exportRevision unpacks `git archive rev` into dir.
func exportRevision(repo, rev, dir string) error {
	cmd := exec.Command("git", "-C", repo, "archive", "--format=tar", rev)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	untarErr := untar(out, dir)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untarErr
}

func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(hdr.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the export directory", hdr.Name)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, os.FileMode(hdr.Mode)&0o777)
			if err != nil {
				return err
			}
			if _, err := io.Copy(f, tr); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
}

// benchRun drives one gated-protocol run in tree — at the gate's run length,
// which is the benchmark's to set, not the caller's — and parses its last line.
func benchRun(tree, workload string, seed, trace int) (*result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", "15", "--trace", strconv.Itoa(trace))
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, lastLine(stderr.String()))
	}
	var res result
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct || len(res.Metrics) == 0 {
		return nil, fmt.Errorf("run reports correct=%v with %d metrics", res.Correct, len(res.Metrics))
	}
	return &res, nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.TrimSpace(lines[len(lines)-1])
}

// runLine renders one run's declared metrics in declaration order.
func runLine(res *result, specs []metricSpec) string {
	var b strings.Builder
	for _, spec := range specs {
		if m, ok := res.Metrics[spec.Name]; ok {
			fmt.Fprintf(&b, " %s=%.4g", spec.Name, m.Value)
		}
	}
	fmt.Fprintf(&b, " failed=%d/%d", res.Failed, res.Attempted)
	return b.String()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (bench/README.md's convention).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// minPairs is the fewest pairs a gain or a loss is called on.
const minPairs = 10

// summaryRow judges one metric over the paired values p (parent) and c
// (change): a gain (or loss) needs nine pairs in ten won, ties counting for
// neither side, and medians further apart than the parent's quartiles; a
// declared bound marks a median that worsened by more than it.
func summaryRow(spec metricSpec, p, c []float64) string {
	sign := 1.0 // a positive signed difference means the change is better
	if spec.Better == "lower" {
		sign = -1
	}
	var wins, ties, losses int
	for i := range p {
		switch d := sign * (c[i] - p[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		default:
			ties++
		}
	}
	pq1, pm, pq3 := quartiles(p)
	cq1, cm, cq3 := quartiles(c)
	gap, iqr := sign*(cm-pm), pq3-pq1
	verdict := "no claim"
	switch {
	case len(p) < minPairs:
		verdict = fmt.Sprintf("fewer than %d pairs", minPairs)
	case 10*wins >= 9*len(p) && gap > iqr:
		verdict = "gain"
	case 10*losses >= 9*len(p) && -gap > iqr:
		verdict = "loss"
	}
	if spec.Bound > 0 && pm != 0 && -gap/math.Abs(pm) > spec.Bound {
		verdict += fmt.Sprintf(", REGRESSED beyond the %.0f %% bound", 100*spec.Bound)
	}
	rel := "n/a"
	if pm != 0 {
		rel = fmt.Sprintf("%+.1f %%", 100*(cm-pm)/math.Abs(pm))
	}
	return fmt.Sprintf("`%s` | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %s | %d/%d/%d | %s",
		spec.Name, pm, pq1, pq3, cm, cq1, cq3, rel, wins, ties, losses, verdict)
}
