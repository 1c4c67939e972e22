package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"trajforge/internal/server"
)

// senders is the load generator's size: this many goroutines, each with its
// own keep-alive connection. It is fixed (not NumCPU) so that results from
// different hosts describe the same offered concurrency.
const senders = 2

// passResult is one replay of a pool prefix against one provider.
type passResult struct {
	wall time.Duration
	// lats holds one latency per request sent, in ms; a failed request holds
	// +Inf until finish() replaces it with the slowest good sample.
	lats      []float64
	attempted int
	failed    int
	firstErr  error
	// outcomes is per item; an item that lost a request has no signatures.
	outcomes []outcome
	// lags is the open-loop generator's own lateness per request, ms.
	lags []float64
	// kernels are the senders' host-speed samples.
	kernels []time.Duration
}

// sender is one connection's worth of load.
type sender struct {
	client *http.Client
	url    string
	lats   []float64
	lags   []float64
	probe  *speedProbe
	failed int
	err    error
}

func newSender(url string) *sender {
	return &sender{
		probe: newSpeedProbe(),
		url:   url,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		},
	}
}

var paths = map[int]string{
	kindUpload: "/v1/trajectory",
	kindOpen:   "/v1/session/open",
	kindAppend: "/v1/session/append",
	kindClose:  "/v1/session/close",
}

// post sends one request and decodes the reply into out. Latency runs from
// `from` (the send instant, or the due instant in the open loop) to the
// last body byte; decoding is outside it.
func (s *sender) post(r request, from time.Time, out any) bool {
	contentType := "application/json"
	if r.binary {
		contentType = server.ContentTypeBinary
	}
	var body []byte
	resp, err := s.client.Post(s.url+paths[r.kind], contentType, bytes.NewReader(r.body))
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	lat := float64(time.Since(from).Nanoseconds()) / 1e6
	if err == nil {
		err = json.Unmarshal(body, out)
	}
	s.lats = append(s.lats, lat)
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", paths[r.kind], err))
		return false
	}
	return true
}

// fail marks the request just sent as failed.
func (s *sender) fail(err error) {
	s.failed++
	if s.err == nil {
		s.err = err
	}
	s.lats[len(s.lats)-1] = math.Inf(1)
}

// fromVerdict keeps what the benchmark accounts with; a verdict without its
// checks map is not well formed.
func fromVerdict(v *server.Verdict) (verdict, error) {
	if v.Checks == nil {
		return verdict{}, errors.New("verdict without checks")
	}
	return verdict{
		accepted:   v.Accepted,
		pFake:      v.WiFiProbFake,
		replayFail: v.Checks["replay"] == "fail",
		wifiRan:    v.Checks["wifi"] != "skipped",
	}, nil
}

// send serves one pool item over HTTP and reports its outcome; ok is false
// when any of its requests failed. A non-zero due (open loop, batch items
// only) is the instant latency is charged from.
func (s *sender) send(it item, due time.Time) (out outcome, ok bool) {
	rejected := false
	for _, r := range it.reqs {
		from := due
		if from.IsZero() {
			from = time.Now()
		}
		switch r.kind {
		case kindUpload, kindClose:
			var sv server.Verdict
			if !s.post(r, from, &sv) {
				return outcome{}, false
			}
			v, err := fromVerdict(&sv)
			if err != nil {
				s.fail(err)
				return outcome{}, false
			}
			out.v = v
			out.sigs = append(out.sigs, v.signature())
		case kindOpen:
			var resp server.SessionOpenResponse
			if !s.post(r, from, &resp) {
				return outcome{}, false
			}
			out.sigs = append(out.sigs, signature{})
		case kindAppend:
			if rejected {
				continue
			}
			var ack server.SessionAppendResponse
			if !s.post(r, from, &ack) {
				return outcome{}, false
			}
			rejected = ack.Rejected
			out.sigs = append(out.sigs, signature{Flag: ack.Rejected, Bits: math.Float64bits(ack.ProvisionalProbFake), N: ack.Scored})
		}
	}
	return out, true
}

// runPass replays the first n items of the pool against url from `workers`
// senders. With due == nil the loop is closed: a sender takes the next item
// as soon as its previous reply is read. With due set the loop is open:
// item i is due at start+due[i], a free sender sleeps until then, and
// latency is charged from the due instant — so the wait behind a slow
// request lands in the number instead of silently delaying the schedule.
func runPass(url string, p *pool, n, workers int, due []time.Duration) *passResult {
	res := &passResult{outcomes: make([]outcome, n)}
	ss := make([]*sender, workers)
	for i := range ss {
		ss[i] = newSender(url)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s.probe.sample()
				var dueAt time.Time
				if due != nil {
					free := time.Now()
					dueAt = start.Add(due[i])
					if d := dueAt.Sub(free); d > 0 {
						time.Sleep(d)
						free = dueAt
					}
					// Lateness the generator itself added: how long after the
					// request could first have gone out it actually did.
					s.lags = append(s.lags, float64(time.Since(free).Nanoseconds())/1e6)
				}
				if out, ok := s.send(p.items[i], dueAt); ok {
					res.outcomes[i] = out
				}
			}
		}(s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, s := range ss {
		s.client.CloseIdleConnections()
		res.lats = append(res.lats, s.lats...)
		res.lags = append(res.lags, s.lags...)
		res.kernels = append(res.kernels, s.probe.samples...)
		res.failed += s.failed
		if res.firstErr == nil {
			res.firstErr = s.err
		}
	}
	res.attempted = len(res.lats)
	return res
}
