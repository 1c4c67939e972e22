package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 100}, {0.99, 198}, {1, 200}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// The expected values are statistics.quantiles(v, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 6, 10, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{2, 4, 4, 5})
	if q1 != 2.5 || med != 4 || q3 != 4.75 {
		t.Errorf("quartiles(2,4,4,5) = %g %g %g, want 2.5 4 4.75", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{3}); med != 3 {
		t.Errorf("median of one value = %g", med)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},  // grandchild: not the root's
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got, want[i])
		}
	}
	layers := aggregate(spans)
	if lt := layers["a"]; lt.calls != 1 || lt.total != 30 || lt.self != 20 {
		t.Errorf("layer a = %+v", *lt)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin("request")
	child := tr.begin("child")
	tr.begin("left open")
	tr.end(child)
	tr.end(root)
	next := tr.begin("request")
	tr.end(next)
	if len(tr.stack) != 0 {
		t.Fatalf("%d spans still open", len(tr.stack))
	}
	if tr.spans[1].Parent != root || tr.spans[2].Parent != child || tr.spans[3].Parent != 0 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[0].Req != 1 || tr.spans[2].Req != 1 || tr.spans[3].Req != 2 {
		t.Errorf("request ids: %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored"))
}

func TestPoissonSchedule(t *testing.T) {
	const n = 20000
	rate := 150.0
	due := poissonSchedule(rand.New(rand.NewSource(5)), n, rate)
	for i := 1; i < n; i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if got := float64(n) / due[n-1].Seconds(); math.Abs(got-rate)/rate > 0.03 {
		t.Errorf("schedule runs at %.1f req/s, want %.0f", got, rate)
	}
	again := poissonSchedule(rand.New(rand.NewSource(5)), n, rate)
	if again[n-1] != due[n-1] {
		t.Error("equal seeds gave different schedules")
	}
	// A Poisson process has exponential gaps: about 1/e of them exceed the mean.
	long := 0
	for i := 1; i < n; i++ {
		if due[i]-due[i-1] > time.Duration(float64(time.Second)/rate) {
			long++
		}
	}
	if share := float64(long) / n; math.Abs(share-1/math.E) > 0.02 {
		t.Errorf("%.3f of the gaps exceed the mean, want about %.3f", share, 1/math.E)
	}
}

func TestHostSpeed(t *testing.T) {
	if got := hostSpeed(nil); got != 1 {
		t.Errorf("speed without a sample = %g, want 1", got)
	}
	even := make([]time.Duration, 10)
	for i := range even {
		even[i] = refKernel * 5 / 4
	}
	if got := hostSpeed(even); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("kernels a quarter longer than the reference give speed %g, want 0.8", got)
	}
	// A kernel whose thread lost its core counts as twice the median one:
	// nine at the reference and one capped at two make a mean of 1.1.
	even[3] = 40 * refKernel
	if got := hostSpeed(even); math.Abs(got-0.8/1.1) > 1e-12 {
		t.Errorf("one descheduled kernel in ten gives speed %g, want %g", got, 0.8/1.1)
	}

	p := newSpeedProbe()
	p.sample()
	p.sample() // too soon after the first
	if len(p.samples) != 1 || p.total != p.samples[0] || p.total <= 0 {
		t.Errorf("two calls in a row took %d samples, total %v", len(p.samples), p.total)
	}
	p.last = p.last.Add(-kernelEvery)
	p.sample()
	if len(p.samples) != 2 {
		t.Errorf("a call %v later took no second sample", kernelEvery)
	}
}

func TestBoundWorsening(t *testing.T) {
	higher := bound{higher: true, limit: 0.1}
	lower := bound{limit: 0.1}
	abs := bound{limit: 0.001, absolute: true}
	for _, c := range []struct {
		b             bound
		first, second float64
		want          float64
	}{
		{higher, 100, 90, 0.10}, {higher, 100, 110, -0.10},
		{lower, 10, 12, 0.20}, {lower, 10, 8, -0.20},
		{abs, 0, 0.002, 0.002}, {abs, 0, 0, 0},
	} {
		if got := c.b.worsening(c.first, c.second); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%+v: %g then %g worsened by %g, want %g", c.b, c.first, c.second, got, c.want)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// TestQuickRun drives the whole benchmark at a tenth of its size on one
// shallow and one deep workload, end to end and traced, and holds the
// result against BENCHMARK.json: same workloads, same metric names and
// units, same bounds as the selfcheck applies.
func TestQuickRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkJSON
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, wl := range workloads {
		if wl.gated() {
			gated = append(gated, wl)
		}
	}
	if len(contract.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark gates %d", len(contract.Workloads), len(gated))
	}
	for i, wl := range gated {
		if c := contract.Workloads[i]; c.Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, c.Name, wl.name)
		}
	}
	for i, m := range contract.EndToEnd {
		b := endToEnd[i]
		better := "lower"
		if b.higher {
			better = "higher"
		}
		if m.Name != b.name || m.Unit != b.unit || m.Better != better || m.Bound != b.limit || b.absolute {
			t.Errorf("end_to_end[%d] = %+v, selfcheck uses %+v", i, m, b)
		}
	}

	cfg := settings{seed: 1, seconds: 1, quick: true, outDir: t.TempDir()}
	for _, name := range []string{"served_binary", "deep_single"} {
		wl, _ := findWorkload(name)
		b, err := newBench(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		rep, err := b.runEndToEnd()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || len(rep.Invalid) > 0 || rep.Failed > 0 {
			t.Errorf("%s: correct=%v failed=%d invalid=%v", name, rep.Correct, rep.Failed, rep.Invalid)
		}
		for _, m := range contract.EndToEnd {
			if v := rep.get(m.Name); math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: %s = %g, want a positive number", name, m.Name, v)
			}
		}

		traced, err := b.runTraced()
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Correct {
			t.Errorf("%s: traced run: %v", name, traced.Invalid)
		}
		if len(traced.Metrics) != len(contract.PerLayer) {
			t.Fatalf("%s: traced run reports %d metrics, BENCHMARK.json lists %d", name, len(traced.Metrics), len(contract.PerLayer))
		}
		for i, m := range contract.PerLayer {
			if got := traced.Metrics[i]; got.Name != m.Name || got.Unit != m.Unit {
				t.Errorf("%s: per_layer[%d] is %s (%s) in BENCHMARK.json, %s (%s) here", name, i, m.Name, m.Unit, got.Name, got.Unit)
			}
		}
		// The budget reconciles by construction: layers + edge = c=1 request.
		sum := traced.get("server.edge.us_per_req")
		for _, layer := range []string{"server.wire", "server.project", "detect.rules", "detect.replay", "rssimap.features", "xgb.score", "rssimap.ingest"} {
			sum += traced.get(layer + ".us_per_req")
		}
		if c1 := traced.get("server.c1.us_per_req"); math.Abs(sum-c1) > 1e-6*c1 {
			t.Errorf("%s: layers + edge = %.3f us, c=1 request = %.3f us", name, sum, c1)
		}
		if _, err := os.Stat(filepath.Join(b.outDir, "trace_"+name+".json")); err != nil {
			t.Error(err)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"},
	} {
		var stderr strings.Builder
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}
