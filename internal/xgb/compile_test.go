package xgb

import (
	"math"
	"math/rand"
	"testing"
)

// PredictProbPointer scores one row through the original pointer trees —
// the reference implementation the compiled kernel is proven against, kept
// for the bit-identity property tests and the pointer-vs-flattened
// microbenchmark.
func (m *Model) PredictProbPointer(x []float64) float64 {
	return sigmoid(m.marginPointer(x))
}

func (m *Model) marginPointer(x []float64) float64 {
	s := m.BaseMargin
	for i := range m.Trees {
		s += m.Trees[i].predict(x)
	}
	return s
}

// randomTrainingSet builds a labelled set with deliberate pathologies:
// some NaN (missing) cells, heavy-tailed values, and duplicated columns.
func randomTrainingSet(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		var s float64
		for j := range row {
			switch {
			case rng.Float64() < 0.08:
				row[j] = math.NaN()
			case rng.Float64() < 0.1:
				row[j] = rng.NormFloat64() * 1e6
			default:
				row[j] = rng.NormFloat64()
			}
			if !math.IsNaN(row[j]) {
				s += row[j]
			}
		}
		X[i] = row
		if s > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// TestCompiledMatchesPointerBitIdentical trains models under randomly drawn
// configurations and checks that the compiled flat forest reproduces the
// pointer trees bit for bit — across ordinary rows, rows with NaN cells,
// rows shorter than the training dimension (absent features = missing),
// overlong rows, and out-of-range magnitudes. This is the contract that
// lets every caller switch to the compiled kernel without re-validating
// verdicts.
func TestCompiledMatchesPointerBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		d := 2 + rng.Intn(9)
		n := 40 + rng.Intn(120)
		cfg := Config{
			Rounds:         1 + rng.Intn(40),
			MaxDepth:       1 + rng.Intn(6),
			LearningRate:   0.05 + rng.Float64()*0.45,
			Lambda:         rng.Float64() * 2,
			Gamma:          rng.Float64() * 0.5,
			MinChildWeight: rng.Float64() * 2,
			SubsampleRows:  0.5 + rng.Float64()*0.5,
			SubsampleCols:  0.5 + rng.Float64()*0.5,
			Seed:           rng.Int63(),
		}
		X, y := randomTrainingSet(rng, n, d)
		m, err := Train(X, y, cfg)
		if err != nil {
			t.Fatalf("trial %d: train: %v", trial, err)
		}

		var probes [][]float64
		probes = append(probes, X...)
		for k := 0; k < 50; k++ {
			// Short, exact, and overlong rows; NaN and huge cells.
			ln := 1 + rng.Intn(d+3)
			row := make([]float64, ln)
			for j := range row {
				switch {
				case rng.Float64() < 0.15:
					row[j] = math.NaN()
				case rng.Float64() < 0.1:
					row[j] = math.Inf(1 - 2*rng.Intn(2))
				default:
					row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
			}
			probes = append(probes, row)
		}
		probes = append(probes, []float64{}) // fully missing row

		batch := make([]float64, len(probes))
		m.PredictBatchInto(batch, probes)
		parBatch := m.PredictBatch(probes)
		for i, row := range probes {
			want := m.PredictProbPointer(row)
			got := m.PredictProb(row)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("trial %d probe %d: compiled %v != pointer %v", trial, i, got, want)
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d probe %d: PredictBatchInto %v != pointer %v", trial, i, batch[i], want)
			}
			if math.Float64bits(parBatch[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d probe %d: PredictBatch %v != pointer %v", trial, i, parBatch[i], want)
			}
		}
	}
}

// TestPredictBatchIntoZeroAllocs pins the kernel's allocation-free
// guarantee: scoring a block through the compiled forest must not allocate
// once the model is compiled.
func TestPredictBatchIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := randomTrainingSet(rng, 80, 6)
	m, err := Train(X, y, Config{Rounds: 20, MaxDepth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(X))
	allocs := testing.AllocsPerRun(20, func() { m.PredictBatchInto(dst, X) })
	if allocs != 0 {
		t.Fatalf("PredictBatchInto allocates %.1f objects per run, want 0", allocs)
	}
}

// TestLazyCompileConcurrent hammers a hand-built (never explicitly
// compiled) model from many goroutines; the lazy compile-and-publish must
// be race-free and every goroutine must see identical predictions. Run
// under -race.
func TestLazyCompileConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := randomTrainingSet(rng, 60, 5)
	m, err := Train(X, y, Config{Rounds: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Strip the eager compilation to force the lazy path.
	fresh := &Model{Trees: m.Trees, BaseMargin: m.BaseMargin, NumFeat: m.NumFeat, Gain: m.Gain}
	want := m.PredictProb(X[0])
	done := make(chan float64, 16)
	for g := 0; g < 16; g++ {
		go func() { done <- fresh.PredictProb(X[0]) }()
	}
	for g := 0; g < 16; g++ {
		if got := <-done; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("concurrent lazy compile: %v != %v", got, want)
		}
	}
}

// BenchmarkKernelPointer and BenchmarkKernelFlattened are the
// pointer-vs-flattened verify-kernel microbenchmark (`make bench-micro`),
// all against the same trained model.
func benchModel(b *testing.B) (*Model, [][]float64) {
	rng := rand.New(rand.NewSource(11))
	X, y := randomTrainingSet(rng, 512, 6)
	m, err := Train(X, y, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return m, X
}

func BenchmarkKernelPointer(b *testing.B) {
	m, X := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictProbPointer(X[i%len(X)])
	}
}

func BenchmarkKernelFlattenedSingle(b *testing.B) {
	m, X := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictProb(X[i%len(X)])
	}
}

func BenchmarkKernelFlattenedBatch(b *testing.B) {
	m, X := benchModel(b)
	dst := make([]float64, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchInto(dst, X)
	}
	b.StopTimer()
	pts := float64(b.N) * float64(len(X))
	b.ReportMetric(pts/b.Elapsed().Seconds(), "points/s")
}
