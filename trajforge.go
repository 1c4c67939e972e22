// Package trajforge is a research library reproducing "Are You Moving as
// You Claim: GPS Trajectory Forgery and Detection in Location-Based
// Services" (Yang et al., ICDCS 2022).
//
// The library has two sides, mirroring the paper:
//
//   - The attack: a C&W-style optimizer (Forger) that fabricates GPS
//     trajectories whose motion characteristics fool an LSTM trajectory
//     classifier while staying close — in Dynamic Time Warping distance —
//     to a plausible route (a navigation plan or a historical trajectory
//     kept at least MinD away so replay checks pass).
//
//   - The defense: a server-side detector (WiFiDetector) that verifies the
//     WiFi RSSI scans uploaded with each trajectory point against a
//     crowdsourced historical store, using the paper's RSSI probability
//     distributions and confidence weighting (Eq. 4–7), and an XGBoost
//     classifier over the resulting features (Eq. 8).
//
// Everything the paper's evaluation needs is included and implemented from
// scratch in pure Go: a road-network generator and router (the navigation
// substrate), a human-mobility and GPS-error simulator (the real-trajectory
// corpus), a WiFi propagation simulator with spatially correlated shadowing
// (the scan corpus), LSTM and gradient-boosted-tree learners, DTW with
// subgradients, and a small HTTP verification service.
//
// Most users start from one of three entry points:
//
//   - NewCity builds a simulated world (roads + radio) to generate data.
//   - NewForger builds the attacker given a target classifier.
//   - TrainWiFiDetector builds the defender given crowdsourced history.
//
// The runnable examples under examples/ walk through complete scenarios,
// and the experiments package regenerates every table and figure of the
// paper (see EXPERIMENTS.md).
package trajforge

import (
	"fmt"
	"math/rand"
	"time"

	"trajforge/internal/attack"
	"trajforge/internal/dataset"
	"trajforge/internal/detect"
	"trajforge/internal/dtw"
	"trajforge/internal/geo"
	"trajforge/internal/mobility"
	"trajforge/internal/nav"
	"trajforge/internal/nn"
	"trajforge/internal/roadnet"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// Core data types, re-exported for downstream use.
type (
	// Trajectory is a time-ordered sequence of GPS fixes.
	Trajectory = trajectory.T
	// TrajectoryPoint is one GPS fix.
	TrajectoryPoint = trajectory.Point
	// Mode is a transportation mode (walking, cycling, driving).
	Mode = trajectory.Mode
	// FeatureKind selects the per-step encoding for sequence classifiers.
	FeatureKind = trajectory.FeatureKind

	// LatLon is a WGS-84 coordinate; PlanePoint a local metric position.
	LatLon = geo.LatLon
	// PlanePoint is a position on the local tangent plane, metres.
	PlanePoint = geo.Point
	// Projection converts between the two.
	Projection = geo.Projection

	// Scan is one WiFi scan (APs heard at a position, strongest first).
	Scan = wifi.Scan
	// Observation is one AP in a scan.
	Observation = wifi.Observation
	// Upload pairs a trajectory with the scan collected at each point.
	Upload = wifi.Upload

	// Classifier is the LSTM sequence classifier (the paper's model C).
	Classifier = nn.Classifier
	// Forger runs the C&W trajectory forgery attack.
	Forger = attack.Forger
	// ForgeryConfig configures an attack run.
	ForgeryConfig = attack.CWConfig
	// ForgeryResult is an attack outcome.
	ForgeryResult = attack.Result
	// Scenario selects replay vs navigation forgery.
	Scenario = attack.Scenario

	// RSSIStore is the provider's crowdsourced historical RSSI database.
	RSSIStore = rssimap.Store
	// RSSIBackend abstracts over the global RSSI store and the distributed
	// one (internal/cluster).
	RSSIBackend = rssimap.Backend
	// RSSIRecord is one crowdsourced (position, scan) record.
	RSSIRecord = rssimap.Record
	// WiFiDetector is the paper's RSSI-based countermeasure.
	WiFiDetector = detect.WiFiDetector
	// MotionDetector labels trajectories from motion features alone.
	MotionDetector = detect.MotionDetector
	// ReplayChecker flags near-duplicates of historical trajectories.
	ReplayChecker = detect.ReplayChecker
	// RouteChecker enforces the paper's route-rationality requirement.
	RouteChecker = detect.RouteChecker
	// RuleChecker is the related-work physical-sanity baseline.
	RuleChecker = detect.RuleChecker

	// VerificationServer is the cloud-side HTTP service.
	VerificationServer = server.Service
	// VerificationClient talks to it.
	VerificationClient = server.Client
	// Verdict is the provider's decision for one upload.
	Verdict = server.Verdict
)

// Transportation modes.
const (
	ModeWalking = trajectory.ModeWalking
	ModeCycling = trajectory.ModeCycling
	ModeDriving = trajectory.ModeDriving
)

// Attack scenarios.
const (
	ScenarioReplay     = attack.ScenarioReplay
	ScenarioNavigation = attack.ScenarioNavigation
)

// Feature encodings.
const (
	FeatureDistAngle = trajectory.FeatureDistAngle
	FeatureDxDy      = trajectory.FeatureDxDy
)

// City is a simulated urban world: a road network with a navigation
// service, a WiFi radio environment, and the mobility simulator that
// produces realistic GPS trajectories over it.
type City struct {
	Nav   *nav.Service
	Radio *wifi.World

	rng *rand.Rand
}

// CityConfig sizes a simulated city.
type CityConfig struct {
	// Width, Height of the area in metres.
	Width, Height float64
	// BlockSize of the street grid in metres.
	BlockSize float64
	// NumAPs deployed across the area.
	NumAPs int
	// Seed makes the city reproducible.
	Seed int64
}

// DefaultCityConfig returns a dense commercial district.
func DefaultCityConfig() CityConfig {
	return CityConfig{Width: 400, Height: 320, BlockSize: 60, NumAPs: 500, Seed: 1}
}

// NewCity builds a simulated world.
func NewCity(cfg CityConfig) (*City, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("trajforge: city area %gx%g must be positive", cfg.Width, cfg.Height)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	roadCfg := roadnet.DefaultConfig()
	roadCfg.Width = cfg.Width
	roadCfg.Height = cfg.Height
	if cfg.BlockSize > 0 {
		roadCfg.BlockSize = cfg.BlockSize
	}
	g, err := roadnet.Generate(rng, roadCfg)
	if err != nil {
		return nil, fmt.Errorf("trajforge: road network: %w", err)
	}
	numAPs := cfg.NumAPs
	if numAPs <= 0 {
		numAPs = int(cfg.Width * cfg.Height / 250)
	}
	world, err := wifi.NewWorld(rng, wifi.DefaultConfig(cfg.Width, cfg.Height, numAPs))
	if err != nil {
		return nil, fmt.Errorf("trajforge: radio world: %w", err)
	}
	return &City{Nav: nav.NewService(g), Radio: world, rng: rng}, nil
}

// Trip is a simulated journey: the realistic GPS trajectory of a traveller
// plus the WiFi scans their phone collected along the way.
type Trip struct {
	Upload *wifi.Upload
	// Truth holds the ground-truth positions the scans were measured at.
	Truth []PlanePoint
	// Route is the planned route polyline the traveller followed.
	Route []PlanePoint
}

// TripConfig describes one journey.
type TripConfig struct {
	From, To PlanePoint
	Mode     Mode
	// Points is the number of fixes to record.
	Points int
	// Interval between fixes (default 1 s).
	Interval time.Duration
	// Start timestamp of the first fix.
	Start time.Time
	// CollectScans records a WiFi scan at every point.
	CollectScans bool
}

// Travel simulates one journey through the city. The same City value must
// not be used from multiple goroutines concurrently (it owns one RNG).
func (c *City) Travel(cfg TripConfig) (*Trip, error) {
	if cfg.Points < 2 {
		return nil, fmt.Errorf("trajforge: trip needs >= 2 points, got %d", cfg.Points)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	plan, err := c.Nav.Route(cfg.From, cfg.To, cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("trajforge: plan trip: %w", err)
	}
	tk, err := mobility.Simulate(c.rng, mobility.Options{
		Route: plan.Polyline, Mode: cfg.Mode,
		Start: cfg.Start, Interval: cfg.Interval, MaxPoints: cfg.Points,
	})
	if err != nil {
		return nil, fmt.Errorf("trajforge: simulate trip: %w", err)
	}
	truth := tk.TruePositions()
	scans := make([]wifi.Scan, len(truth))
	if cfg.CollectScans {
		for i, p := range truth {
			scans[i] = c.Radio.Scan(c.rng, p)
		}
	} else {
		for i := range scans {
			scans[i] = wifi.Scan{}
		}
	}
	return &Trip{
		Upload: &wifi.Upload{Traj: tk.Trajectory(), Scans: scans},
		Truth:  truth,
		Route:  plan.Polyline,
	}, nil
}

// NewRouteChecker returns the route-rationality check over this city's
// road network.
func (c *City) NewRouteChecker() (*RouteChecker, error) {
	return detect.NewRouteChecker(c.Nav.Graph())
}

// PlanRoute exposes the navigation substrate: it returns the recommended
// route polyline and cruise speed between two positions, as a commercial
// navigation service would.
func (c *City) PlanRoute(from, to PlanePoint, mode Mode) ([]PlanePoint, float64, error) {
	plan, err := c.Nav.Route(from, to, mode)
	if err != nil {
		return nil, 0, err
	}
	return plan.Polyline, plan.RecommendedSpeed, nil
}

// NavigationFake samples the route between two points at constant speed —
// the raw material of the paper's navigation attack (its AN dataset).
func (c *City) NavigationFake(from, to PlanePoint, mode Mode, points int, start time.Time, interval time.Duration) (*Trajectory, error) {
	plan, err := c.Nav.Route(from, to, mode)
	if err != nil {
		return nil, fmt.Errorf("trajforge: plan navigation fake: %w", err)
	}
	if interval <= 0 {
		interval = time.Second
	}
	return plan.Sample(start, interval, points), nil
}

// NewForger returns the attack against a target classifier consuming the
// given feature encoding.
func NewForger(target *Classifier, kind FeatureKind) *Forger {
	return attack.NewForger(target, kind)
}

// DefaultForgeryConfig mirrors the paper's attack settings.
func DefaultForgeryConfig(s Scenario) ForgeryConfig { return attack.DefaultCWConfig(s) }

// EstimateMinD calibrates the replay threshold from repeated traversals of
// the same route (Sec. IV-A3).
func EstimateMinD(trajs []*Trajectory) (float64, error) { return attack.MinDEstimate(trajs) }

// DTWDistance returns the Dynamic Time Warping distance between the
// position sequences of two trajectories.
func DTWDistance(a, b *Trajectory) float64 {
	return dtw.Dist(a.Positions(), b.Positions())
}

// TrainTargetClassifier trains an LSTM classifier (the paper's model C) on
// real and fake trajectory sets. hidden is the LSTM width; epochs the
// training budget.
func TrainTargetClassifier(real, fake []*Trajectory, hidden, epochs int, seed int64) (*Classifier, error) {
	det, err := detect.TrainLSTM(detect.LSTMSpec{
		Name: "C", Kind: trajectory.FeatureDistAngle,
		Hidden: []int{hidden}, Seed: seed, MeanPool: true, Restarts: 2,
	}, real, fake, nn.TrainConfig{
		Epochs: epochs, BatchSize: 8, LearningRate: 0.02,
		LRDecay: 0.97, KeepBest: true, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return det.Model, nil
}

// TrainGRUDetector trains the extension GRU transfer model (an architecture
// outside the paper's LSTM family; see DESIGN.md §4b).
func TrainGRUDetector(real, fake []*Trajectory, hidden, epochs int, seed int64) (MotionDetector, error) {
	return detect.TrainGRU(hidden, real, fake, nn.TrainConfig{
		Epochs: epochs, BatchSize: 8, LearningRate: 0.02,
		LRDecay: 0.97, Seed: seed,
	})
}

// NewRSSIStore builds the provider's crowdsourced store from historical
// uploads, with the paper's calibrated counting radius R = 3 m.
func NewRSSIStore(historical []*Upload) (*RSSIStore, error) {
	return rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(historical))
}

// TrainWiFiDetector fits the paper's RSSI countermeasure: r = 2.5 m
// reference radius, top-5 strongest APs per point, XGBoost classifier.
// store is the crowdsourced history the features read (NewRSSIStore).
func TrainWiFiDetector(store RSSIBackend, real, fake []*Upload) (*WiFiDetector, error) {
	return detect.TrainWiFiDetector(store, real, fake,
		rssimap.DefaultFeatureConfig(), xgb.DefaultConfig())
}

// ForgeUploadRSSI builds the paper's Sec. IV-B attacker artifact: claimed
// positions perturbed at least MinD away from a historical trajectory, with
// the historical RSSIs replayed under a {-1, 0, 1} disturbance.
func ForgeUploadRSSI(rng *rand.Rand, historical *Upload, minDPerMeter float64) (*Upload, error) {
	return dataset.ForgeUpload(rng, historical, minDPerMeter)
}

// NewRuleChecker returns the physical-sanity rule baseline.
func NewRuleChecker() *RuleChecker { return detect.NewRuleChecker() }

// NewReplayChecker returns the DTW replay check with the given MinD
// threshold (DTW per metre of route).
func NewReplayChecker(minDPerMeter float64) (*ReplayChecker, error) {
	return detect.NewReplayChecker(minDPerMeter)
}

// NewVerificationServer assembles the cloud-side service.
func NewVerificationServer(cfg server.Config) (*VerificationServer, error) { return server.New(cfg) }

// NewVerificationClient returns a client for a verification server.
func NewVerificationClient(baseURL string, pr *Projection) *VerificationClient {
	return server.NewClient(baseURL, pr)
}

// NewProjection anchors a local plane at the given WGS-84 origin.
func NewProjection(origin LatLon) *Projection { return geo.NewProjection(origin) }

// SequenceFeatures encodes a trajectory as the per-step feature sequence a
// Classifier consumes.
func SequenceFeatures(t *Trajectory, kind FeatureKind) [][]float64 {
	return trajectory.SequenceFeatures(t, kind)
}

// NewTrajectory builds a trajectory from plane positions sampled at a
// constant interval.
func NewTrajectory(positions []PlanePoint, start time.Time, interval time.Duration) *Trajectory {
	return trajectory.New(positions, start, interval)
}
