package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"trajforge/internal/dataset"
	"trajforge/internal/detect"
	"trajforge/internal/geo"
	"trajforge/internal/loadgen"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// histUploads is the honest corpus behind every provider: three quarters
// seed the RSSI store and the replay history, the last quarter plus forgeries
// of stored uploads train the detector.
const histUploads = 400

// worldSeed fixes the city, the provider's corpus and the detector for every
// run. The benchmark's -seed draws the traffic and the arrival schedule
// only: cities drawn from different seeds differ in AP density, detector
// quality and accept rate by far more than any bound (ops_per_s varied by
// 19 % across ten cities, honest_accept_ratio from 0.75 to 0.99), so a
// per-seed city would be a different workload under the same name.
const worldSeed = 1

// world is what every request pool is drawn from and every provider is
// built on: the city, the provider's seed corpus and the detector trained
// on it once.
type world struct {
	seed int64
	// city is dropped once the pool is encoded; providers need only what
	// follows.
	city       *loadgen.City
	projection *geo.Projection
	// seedHist is the part of the corpus every fresh provider starts from.
	seedHist    []*wifi.Upload
	seedRecords []rssimap.Record
	model       *xgb.Model
	features    rssimap.FeatureConfig
}

// newWorld simulates the city; the detector is trained separately because
// request pools depend on the city alone.
func newWorld(seed int64) (*world, error) {
	city, err := loadgen.BuildCity(loadgen.CityOptions{Seed: seed, Hist: histUploads})
	if err != nil {
		return nil, err
	}
	nStore := len(city.Hist) * 3 / 4
	w := &world{seed: seed, city: city, projection: city.Projection, seedHist: city.Hist[:nStore]}
	w.seedRecords = dataset.Records(w.seedHist)
	return w, nil
}

// train fits the RSSI detector the way loadgen's self-hosted providers do:
// held-out honest uploads against forgeries of stored ones.
func (w *world) train() error {
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), w.seedRecords)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed + 13))
	var fakes []*wifi.Upload
	for _, u := range w.seedHist[:len(w.seedHist)/2] {
		f, err := dataset.ForgeUpload(rng, u, 1.2)
		if err != nil {
			return err
		}
		fakes = append(fakes, f)
	}
	det, err := detect.TrainWiFiDetector(store, w.city.Hist[len(w.seedHist):], fakes,
		rssimap.DefaultFeatureConfig(), xgb.DefaultConfig())
	if err != nil {
		return fmt.Errorf("train detector: %w", err)
	}
	w.model, w.features = det.Model, det.Features
	return nil
}

// Traffic classes. Per block of 20 uploads the mix is exactly 15 honest,
// 3 nav_attack, 2 spoof_jump, in a seeded order.
const (
	classHonest = "honest"
	classNav    = "nav_attack"
	classSpoof  = "spoof_jump"
)

var classBlock = func() []string {
	b := make([]string, 0, 20)
	for i := 0; i < 15; i++ {
		b = append(b, classHonest)
	}
	b = append(b, classNav, classNav, classNav, classSpoof, classSpoof)
	return b
}()

// traffic is a seeded sequence of uploads with their ground-truth class.
// Every workload's pool is an encoding of a prefix of it, so workloads that
// share a size share the same logical requests.
type traffic struct {
	uploads []*wifi.Upload
	classes []string
}

func (w *world) genTraffic(seed int64, n int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed + 101))
	tr := &traffic{}
	block := append([]string(nil), classBlock...)
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[i%len(block)]
		// A few agents live where long-enough routable trips are rare and the
		// city gives up on them now and then; the upload then goes to the
		// next agent drawn, so that no seed fails to produce its traffic.
		var u *wifi.Upload
		var err error
		for tries := 0; tries < 32; tries++ {
			agent := w.city.Agents[rng.Intn(len(w.city.Agents))]
			switch class {
			case classHonest:
				u, err = w.city.HonestUpload(rng, agent)
			case classNav:
				u, err = w.city.NavAttackUpload(rng, agent, w.city.Hist)
			case classSpoof:
				u, err = w.city.SpoofJumpUpload(rng, agent)
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("traffic %d (%s): %w", i, class, err)
		}
		u.Traj.ID = fmt.Sprintf("b-%s-%d", class, i)
		tr.uploads = append(tr.uploads, u)
		tr.classes = append(tr.classes, class)
	}
	return tr, nil
}

// Request kinds of a pool item.
const (
	kindUpload = iota
	kindOpen
	kindAppend
	kindClose
)

// request is one pre-encoded HTTP request.
type request struct {
	kind   int
	binary bool
	body   []byte
}

// item is one logical upload: a single batch request, or a session sent as
// open, appends and close. Verdict accounting is per item.
type item struct {
	class string
	reqs  []request
}

// pool is a workload's fixed request set. The program under test only ever
// receives these bytes.
type pool struct {
	items    []item
	requests int
	bytes    int // Σ request body lengths
	counts   map[string]int
	digest   string // hex SHA-256 over every request body in order
}

const sessionAppends = 4

// encodePool encodes the first n uploads of tr. Batch pools carry one
// request per upload on the JSON or the binary wire; session pools carry a
// JSON open, sessionAppends binary appends and a JSON close.
func (w *world) encodePool(tr *traffic, n int, binary, sessions bool) (*pool, error) {
	if n > len(tr.uploads) {
		return nil, fmt.Errorf("pool of %d from %d uploads", n, len(tr.uploads))
	}
	enc := server.NewClient("", w.projection)
	p := &pool{counts: make(map[string]int)}
	hash := sha256.New()
	for i := 0; i < n; i++ {
		u := tr.uploads[i]
		it := item{class: tr.classes[i]}
		if sessions {
			id := fmt.Sprintf("s-%05d", i)
			mode := ""
			if u.Traj.Mode != 0 {
				mode = u.Traj.Mode.String()
			}
			open, err := json.Marshal(server.SessionOpenRequest{ID: id, Mode: mode})
			if err != nil {
				return nil, err
			}
			it.reqs = append(it.reqs, request{kind: kindOpen, body: open})
			pts := u.Traj.Len()
			for c := 0; c < sessionAppends; c++ {
				lo, hi := c*pts/sessionAppends, (c+1)*pts/sessionAppends
				if lo == hi {
					continue
				}
				req, err := enc.BuildSessionAppend(id, len(it.reqs)-1, u, lo, hi)
				if err != nil {
					return nil, fmt.Errorf("encode session %d chunk %d: %w", i, c, err)
				}
				body, err := server.EncodeSessionAppendBinary(req)
				if err != nil {
					return nil, err
				}
				it.reqs = append(it.reqs, request{kind: kindAppend, binary: true, body: body})
			}
			closeBody, err := json.Marshal(server.SessionCloseRequest{SessionID: id})
			if err != nil {
				return nil, err
			}
			it.reqs = append(it.reqs, request{kind: kindClose, body: closeBody})
		} else {
			req, err := enc.BuildRequest(u)
			if err != nil {
				return nil, fmt.Errorf("encode upload %d: %w", i, err)
			}
			var body []byte
			if binary {
				body, err = server.EncodeUploadBinary(req)
			} else {
				body, err = json.Marshal(req)
			}
			if err != nil {
				return nil, err
			}
			it.reqs = append(it.reqs, request{kind: kindUpload, binary: binary, body: body})
		}
		for _, r := range it.reqs {
			hash.Write(r.body)
			p.bytes += len(r.body)
		}
		p.requests += len(it.reqs)
		p.counts[it.class]++
		p.items = append(p.items, it)
	}
	p.digest = hex.EncodeToString(hash.Sum(nil))
	return p, nil
}
