// Package loadgen is the seeded city model that the gated benchmark (bench/)
// and the poisoning experiment (internal/experiments) share: one simulated
// city (radio world + road network) partitioned into districts, each with
// its own transportation mode mix, populated by a fixed roster of agents.
// Everything — district assignment, agent modes, home locations, every
// trip — derives from the seed, so a workload built on top is reproducible
// byte for byte. It generates; it does not drive or measure anything.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"trajforge/internal/attack"
	"trajforge/internal/geo"
	"trajforge/internal/mobility"
	"trajforge/internal/nav"
	"trajforge/internal/roadnet"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// District is one zone of the simulated city. Districts partition the road
// network into vertical bands (in city x-order) and give the agents homed
// there a distinct transport mode mix — the old town walks, the campus
// cycles, the arterial strip drives.
type District struct {
	Name string
	// Weight is the district's share of the agent population.
	Weight float64
	// Walk, Cycle, Drive are the (relative) probabilities that a trip by
	// one of the district's agents uses that mode.
	Walk, Cycle, Drive float64
}

// DefaultDistricts is the three-district city the BENCH harness uses.
func DefaultDistricts() []District {
	return []District{
		{Name: "oldtown", Weight: 0.40, Walk: 0.70, Cycle: 0.20, Drive: 0.10},
		{Name: "campus", Weight: 0.35, Walk: 0.25, Cycle: 0.55, Drive: 0.20},
		{Name: "arterial", Weight: 0.25, Walk: 0.10, Cycle: 0.20, Drive: 0.70},
	}
}

// CityOptions configures BuildCity.
type CityOptions struct {
	// Seed fixes everything observable about the city. Default 1.
	Seed int64
	// Agents is the roster size. Default 120.
	Agents int
	// Hist is the number of historical uploads collected from the agents
	// (the corpus the self-hosted provider trains from). Default 90.
	Hist int
	// Points per trajectory and the sampling interval. Defaults 20, 2s.
	Points   int
	Interval time.Duration
	// Width, Height, NumAPs, BlockSize describe the simulated area.
	// Defaults 320x260 m, 360 APs, 55 m blocks — larger than the paper's
	// single-mode collection areas so driving trips fit and trip routes
	// are diverse enough that honest traffic is not a replay of itself.
	Width, Height float64
	NumAPs        int
	BlockSize     float64
	// Districts defaults to DefaultDistricts.
	Districts []District
}

func (o *CityOptions) setDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Agents <= 0 {
		o.Agents = 120
	}
	if o.Hist <= 0 {
		o.Hist = 90
	}
	if o.Points <= 0 {
		o.Points = 20
	}
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.Width <= 0 {
		o.Width = 320
	}
	if o.Height <= 0 {
		o.Height = 260
	}
	if o.NumAPs <= 0 {
		o.NumAPs = 360
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 55
	}
	if len(o.Districts) == 0 {
		o.Districts = DefaultDistricts()
	}
}

// Agent is one simulated inhabitant: homed in a district, with a fixed
// preferred transport mode drawn from the district's mix.
type Agent struct {
	ID       int
	District int
	Mode     trajectory.Mode
	// Home is a road-network node inside the district's band; trips start
	// near it.
	Home geo.Point
}

// City is the built model: the shared radio world and road network, the
// district partition, the agent roster, and the historical corpus the
// provider trains from.
type City struct {
	Opts      CityOptions
	World     *wifi.World
	Graph     *roadnet.Graph
	Nav       *nav.Service
	Districts []District
	Agents    []Agent
	// Hist holds honest historical trips by the city's own agents, mixed
	// modes, in collection order.
	Hist []*wifi.Upload
	// Projection shared by workload encoding and the self-hosted server.
	Projection *geo.Projection
	// bandNodes[d] lists the road-network node ids inside district d.
	bandNodes [][]int
}

var origin = geo.LatLon{Lat: 32.06, Lon: 118.79}

var cityStart = time.Date(2022, 6, 15, 8, 0, 0, 0, time.UTC)

// BuildCity simulates the city and collects the historical corpus.
func BuildCity(opts CityOptions) (*City, error) {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	world, err := wifi.NewWorld(rng, wifi.DefaultConfig(opts.Width, opts.Height, opts.NumAPs))
	if err != nil {
		return nil, fmt.Errorf("loadgen: city world: %w", err)
	}
	roadCfg := roadnet.DefaultConfig()
	roadCfg.Width = opts.Width
	roadCfg.Height = opts.Height
	roadCfg.BlockSize = opts.BlockSize
	g, err := roadnet.Generate(rng, roadCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: city roads: %w", err)
	}
	c := &City{
		Opts: opts, World: world, Graph: g, Nav: nav.NewService(g),
		Districts:  opts.Districts,
		Projection: geo.NewProjection(origin),
	}

	// Partition the network into district bands by cumulative weight over x.
	total := 0.0
	for _, d := range opts.Districts {
		total += d.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("loadgen: district weights sum to %v", total)
	}
	cuts := make([]float64, len(opts.Districts))
	acc := 0.0
	for i, d := range opts.Districts {
		acc += d.Weight / total
		cuts[i] = acc * opts.Width
	}
	c.bandNodes = make([][]int, len(opts.Districts))
	for id, n := range g.Nodes() {
		band := len(cuts) - 1
		for i, cut := range cuts {
			if n.Pos.X <= cut {
				band = i
				break
			}
		}
		c.bandNodes[band] = append(c.bandNodes[band], id)
	}
	for i, nodes := range c.bandNodes {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("loadgen: district %q has no road nodes", opts.Districts[i].Name)
		}
	}

	// Populate the roster: district by weight, mode by district mix, home
	// node inside the band.
	for id := 0; id < opts.Agents; id++ {
		d := pickDistrict(rng, opts.Districts, total)
		mode := pickMode(rng, opts.Districts[d])
		home := g.Node(c.bandNodes[d][rng.Intn(len(c.bandNodes[d]))]).Pos
		c.Agents = append(c.Agents, Agent{ID: id, District: d, Mode: mode, Home: home})
	}

	// Collect the historical corpus: honest trips by rotating agents.
	for len(c.Hist) < opts.Hist {
		a := c.Agents[len(c.Hist)%len(c.Agents)]
		u, err := c.HonestUpload(rng, a)
		if err != nil {
			return nil, fmt.Errorf("loadgen: city history %d: %w", len(c.Hist), err)
		}
		u.Traj.ID = fmt.Sprintf("city-hist-%d", len(c.Hist))
		c.Hist = append(c.Hist, u)
	}
	return c, nil
}

func pickDistrict(rng *rand.Rand, ds []District, total float64) int {
	r := rng.Float64() * total
	for i, d := range ds {
		r -= d.Weight
		if r < 0 {
			return i
		}
	}
	return len(ds) - 1
}

func pickMode(rng *rand.Rand, d District) trajectory.Mode {
	total := d.Walk + d.Cycle + d.Drive
	r := rng.Float64() * total
	if r < d.Walk {
		return trajectory.ModeWalking
	}
	if r < d.Walk+d.Cycle {
		return trajectory.ModeCycling
	}
	return trajectory.ModeDriving
}

// trip plans one route for the agent: from a node in its home district to
// any node far enough away for the trajectory length, retrying on
// unroutable or too-short pairs.
func (c *City) trip(rng *rand.Rand, a Agent) (*nav.Plan, error) {
	prof := mobility.ProfileFor(a.Mode)
	minDist := prof.CruiseSpeed * c.Opts.Interval.Seconds() * float64(c.Opts.Points) * 1.3
	minDist = math.Min(minDist, c.Opts.Width*0.8)
	band := c.bandNodes[a.District]
	for tries := 0; tries < 256; tries++ {
		from := c.Graph.Node(band[rng.Intn(len(band))]).Pos
		to := c.Graph.Node(rng.Intn(c.Graph.NumNodes())).Pos
		if geo.Dist(from, to) < minDist {
			continue
		}
		plan, err := c.Nav.Route(from, to, a.Mode)
		if err != nil {
			continue
		}
		return plan, nil
	}
	return nil, fmt.Errorf("loadgen: no viable trip for agent %d (%s)", a.ID, a.Mode)
}

// HonestUpload simulates one genuine trip by the agent: real mobility
// along a planned route, scans measured at the ground-truth positions.
func (c *City) HonestUpload(rng *rand.Rand, a Agent) (*wifi.Upload, error) {
	u, _, err := c.honestTrack(rng, a)
	return u, err
}

func (c *City) honestTrack(rng *rand.Rand, a Agent) (*wifi.Upload, []geo.Point, error) {
	for tries := 0; tries < 64; tries++ {
		plan, err := c.trip(rng, a)
		if err != nil {
			return nil, nil, err
		}
		tk, err := mobility.Simulate(rng, mobility.Options{
			Route: plan.Polyline, Mode: a.Mode,
			Start: cityStart, Interval: c.Opts.Interval, MaxPoints: c.Opts.Points,
		})
		if err != nil || len(tk.Points) < c.Opts.Points {
			continue
		}
		traj := tk.Trajectory()
		truths := tk.TruePositions()
		scans := make([]wifi.Scan, len(truths))
		for i, p := range truths {
			scans[i] = c.World.Scan(rng, p)
		}
		return &wifi.Upload{Traj: traj, Scans: scans}, truths, nil
	}
	return nil, nil, fmt.Errorf("loadgen: agent %d (%s) produced no full-length track", a.ID, a.Mode)
}

// NavAttackUpload is the replayed navigation forgery: the claimed
// trajectory is a constant-speed navigation sample along a planned route
// with naive noise (internal/attack), while the scans are replayed from a
// historical upload measured elsewhere in the city, with the paper's
// per-value {-1,0,1} disturbance.
func (c *City) NavAttackUpload(rng *rand.Rand, a Agent, hist []*wifi.Upload) (*wifi.Upload, error) {
	if len(hist) == 0 {
		return nil, fmt.Errorf("loadgen: nav attack needs a history to replay scans from")
	}
	// Navigation samples run at the route's recommended speed, so a fast
	// mode can exhaust its route before Points fixes; real forgeries vary
	// in length too, so accept any sample at least half the nominal length
	// (min 8 points — comfortably past the decoder's floor).
	minLen := c.Opts.Points / 2
	if minLen < 8 {
		minLen = 8
	}
	if minLen > c.Opts.Points {
		minLen = c.Opts.Points
	}
	for tries := 0; tries < 64; tries++ {
		plan, err := c.trip(rng, a)
		if err != nil {
			return nil, err
		}
		sample := plan.Sample(cityStart, c.Opts.Interval, c.Opts.Points)
		n := sample.Len()
		if n < minLen {
			continue
		}
		fake := attack.NaiveNavigation(rng, sample)
		src := hist[rng.Intn(len(hist))]
		if src.Traj.Len() < n {
			continue
		}
		scans := make([]wifi.Scan, n)
		for i := 0; i < n; i++ {
			cp := src.Scans[i].Clone()
			for j := range cp {
				cp[j].RSSI += rng.Intn(3) - 1
			}
			scans[i] = cp
		}
		return &wifi.Upload{Traj: fake, Scans: scans}, nil
	}
	return nil, fmt.Errorf("loadgen: agent %d produced no viable nav sample", a.ID)
}

// SpoofJumpUpload is the GNSS-spoofing-style forgery: a genuine trip whose
// claimed positions are teleported sideways from a mid-track index onward,
// while the scans keep reporting the radio environment of the true path.
// Small jumps slip past the physical-sanity rules (inside the per-mode
// speed cap for driving) and must be caught by the RSSI countermeasure;
// large ones trip the rule stage outright.
func (c *City) SpoofJumpUpload(rng *rand.Rand, a Agent) (*wifi.Upload, error) {
	u, _, err := c.honestTrack(rng, a)
	if err != nil {
		return nil, err
	}
	n := u.Traj.Len()
	jumpAt := n/3 + rng.Intn(n/3)
	dist := 60 + rng.Float64()*90 // 60-150 m
	dir := rng.Float64() * 2 * math.Pi
	off := geo.Point{X: dist * math.Cos(dir), Y: dist * math.Sin(dir)}
	pos := u.Traj.Positions()
	for i := jumpAt; i < n; i++ {
		pos[i] = pos[i].Add(off)
	}
	traj, err := u.Traj.WithPositions(pos)
	if err != nil {
		return nil, err
	}
	return &wifi.Upload{Traj: traj, Scans: u.Scans}, nil
}
