package main

import (
	"sort"
	"time"
)

// The hosts this benchmark runs on are shared guests: each virtual CPU
// computes at full speed or at about two thirds of it, as whatever shares its
// core comes and goes, for seconds to minutes at a time. Two back-to-back
// sets of ten runs of the same code differed by 21 % in requests per second
// and 39 % in median latency, which no statistic inside one 20-second run can
// see past. So every time the benchmark reports is scaled to a reference host
// speed: while a pass runs, each sender times a fixed piece of arithmetic
// between requests, every kernelEvery, and the pass's times are divided by
// how much longer than refKernel those kernels took on average. The kernel
// shares no code with the repository, so a change to the repository cannot
// move it.

const (
	// refKernel is what one kernel takes on the baseline host when nothing
	// else shares its cores. It is a unit, not a tunable: host.speed is
	// refKernel ÷ measured, and changing it rescales every time ever reported.
	refKernel = time.Millisecond
	// kernelEvery keeps the probe to about 2 % of a sender's time, and gives
	// a 2-second pass some 80 samples of how fast its cores were running.
	kernelEvery = 50 * time.Millisecond

	kernelWords  = 4096 // 32 KiB: stays in the L1 cache, so it times the core alone
	kernelRounds = 250
)

// speedProbe samples how fast the host computes, from the goroutine that
// owns it.
type speedProbe struct {
	buf     []float64
	last    time.Time
	samples []time.Duration // one per kernel run
	total   time.Duration   // their sum: what the probe cost its goroutine
	sink    float64         // keeps the compiler from dropping the kernel
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{buf: make([]float64, kernelWords)}
}

// sample runs the kernel if the last one is kernelEvery old.
func (p *speedProbe) sample() {
	start := time.Now()
	if start.Sub(p.last) < kernelEvery {
		return
	}
	buf, s := p.buf, 0.0
	for r := 0; r < kernelRounds; r++ {
		for i := range buf {
			buf[i] = buf[i]*0.999 + 0.001
			s += buf[i]
		}
	}
	p.sink += s
	p.last = time.Now()
	p.samples = append(p.samples, p.last.Sub(start))
	p.total += p.last.Sub(start)
}

// probeWhile runs f while a goroutine of its own samples the host's speed:
// for the stretches of set-up that run inside the repository's code, where
// nothing can sample between requests.
func probeWhile(f func() error) ([]time.Duration, error) {
	p := newSpeedProbe()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(kernelEvery)
		defer tick.Stop()
		for {
			p.sample()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := f()
	close(stop)
	<-done
	return p.samples, err
}

// hostSpeed is refKernel ÷ the mean kernel time: 1 on the undisturbed
// baseline host, 0.8 on a host a fifth slower. A time measured while the
// kernels ran is brought to reference speed by multiplying it by this, a
// rate by dividing. Without a sample the speed is taken as 1.
//
// A slow core stretches a kernel by half; a kernel several times longer than
// its neighbours ran on a thread the operating system took off its core
// meanwhile, in favour of other work of the same process, which costs the
// process nothing. Such a sample counts as twice the median sample.
func hostSpeed(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	limit := 2 * sorted[len(sorted)/2]
	var total time.Duration
	for _, d := range sorted {
		total += min(d, limit)
	}
	return float64(refKernel) * float64(len(sorted)) / float64(total)
}
