package main

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"trajforge/internal/trust"
)

// config is the parsed and validated command line.
type config struct {
	addr    string
	seed    int64
	uploads int
	dataDir string

	// Cluster: node mode (nodeID + clusterListen) or coordinator mode
	// (clusterNodes, parsed from -join; nil = single-process).
	nodeID         string
	clusterListen  string
	clusterNodes   map[string]string
	replicate      bool
	clusterDataDir string
	repairEvery    time.Duration
	rebalanceEvery time.Duration
	leasePath      string
	leaseTTL       time.Duration
	coordID        string
	standby        bool

	maxInflight     int
	queueDepth      int
	uploadTimeout   time.Duration
	breakerCooldown time.Duration

	maxSessions   int
	sessionTTL    time.Duration
	sessionWindow int

	// trust turns the pipeline on; the trust flags set fields of trustCfg,
	// whose defaults are trust.DefaultConfig's.
	trust    bool
	trustCfg trust.Config
}

// parseConfig parses args and checks the flag combinations: which flags
// require which mode, and which modes exclude each other.
func parseConfig(args []string) (*config, error) {
	cfg := config{trustCfg: trust.DefaultConfig()}
	tc := &cfg.trustCfg
	var join string
	fs := flag.NewFlagSet("lspserver", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8742", "listen address")
	fs.Int64Var(&cfg.seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.uploads, "uploads", 300, "crowdsourced uploads to bootstrap the detector")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for the WAL and snapshots (empty = in-memory only)")
	fs.StringVar(&cfg.nodeID, "node-id", "", "run as a cluster shard node with this member id (requires -cluster-listen)")
	fs.StringVar(&cfg.clusterListen, "cluster-listen", "", "shard-transport listen address for node mode")
	fs.StringVar(&join, "join", "", "run as a cluster coordinator over these nodes (comma-separated id=addr pairs)")
	fs.BoolVar(&cfg.replicate, "replicate", false, "place a follower replica of every tile (requires -join with >= 2 nodes)")
	fs.StringVar(&cfg.clusterDataDir, "cluster-data-dir", "", "directory for the coordinator's own WAL/snapshots (requires -join)")
	fs.DurationVar(&cfg.repairEvery, "repair-every", 0,
		"re-replicate dead nodes' tiles in the background at this interval (0 = off; requires -replicate)")
	fs.DurationVar(&cfg.rebalanceEvery, "rebalance-every", 0,
		"migrate the hottest tile off the most-loaded node at this interval (0 = off; requires -join)")
	fs.StringVar(&cfg.leasePath, "lease", "", "coordinator lease file shared between active and standby (requires -join)")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", 5*time.Second, "coordinator lease time-to-live")
	fs.StringVar(&cfg.coordID, "coord-id", "coord1", "coordinator identity written to the lease file")
	fs.BoolVar(&cfg.standby, "standby", false, "wait for the active coordinator's lease to lapse before taking over")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 4*runtime.NumCPU(),
		"concurrent uploads admitted to the pipeline (0 = unbounded)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 0,
		"admission wait-queue bound (0 = 2x max-inflight)")
	fs.DurationVar(&cfg.uploadTimeout, "upload-timeout", 10*time.Second,
		"per-upload processing deadline (0 = none)")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", time.Second,
		"persistence breaker open period before a half-open heal probe")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 1024,
		"concurrently open streaming verification sessions")
	fs.DurationVar(&cfg.sessionTTL, "session-ttl", 10*time.Minute,
		"absolute streaming session lifetime")
	fs.IntVar(&cfg.sessionWindow, "session-window", 16,
		"sliding-window length (points) of the provisional streaming verdict")
	fs.BoolVar(&cfg.trust, "trust", false,
		"route accepted uploads through the poisoning-resistant trust pipeline")
	fs.IntVar(&tc.Quarantine.K, "quarantine-k", tc.Quarantine.K,
		"distinct contributors required to promote a quarantined point (<=1 disables staging)")
	fs.Float64Var(&tc.Ledger.Floor, "trust-floor", tc.Ledger.Floor,
		"minimum contributor trust weight in the store's density term")
	fs.Float64Var(&tc.Quarantine.PromoteTrust, "trust-promote", tc.Quarantine.PromoteTrust,
		"trust weight above which a contributor's points skip quarantine")
	fs.IntVar(&tc.WeightRefresh, "trust-refresh", tc.WeightRefresh,
		"accepted uploads between pushes of the trust-weight table into the store")
	fs.IntVar(&tc.Drift.Window, "drift-window", tc.Drift.Window,
		"records per tile between drift-alarm histogram rotations")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// Node mode reads nothing but its identity, address and data directory;
	// any other flag would be dropped silently, so it is refused by name.
	if cfg.nodeID != "" {
		if cfg.clusterListen == "" {
			return nil, errors.New("-node-id requires -cluster-listen")
		}
		var unread string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "node-id", "cluster-listen", "data-dir":
			default:
				if unread == "" {
					unread = f.Name
				}
			}
		})
		if unread != "" {
			return nil, fmt.Errorf("-%s is not read in node mode (a node takes -cluster-listen and -data-dir)", unread)
		}
		return &cfg, nil
	}
	if cfg.clusterListen != "" {
		return nil, errors.New("-cluster-listen requires -node-id")
	}
	var err error
	if cfg.clusterNodes, err = parseJoin(join); err != nil {
		return nil, err
	}
	if cfg.clusterNodes == nil {
		switch {
		case cfg.replicate:
			return nil, errors.New("-replicate requires -join")
		case cfg.clusterDataDir != "":
			return nil, errors.New("-cluster-data-dir requires -join")
		case cfg.leasePath != "" || cfg.standby:
			return nil, errors.New("-lease/-standby require -join")
		case cfg.repairEvery != 0 || cfg.rebalanceEvery != 0:
			return nil, errors.New("-repair-every/-rebalance-every require -join")
		}
	}
	if cfg.repairEvery != 0 && !cfg.replicate {
		return nil, errors.New("-repair-every requires -replicate")
	}
	// Without a lease to wait on, a standby would build its store at once
	// and fence the live coordinator off the nodes.
	if cfg.standby && cfg.leasePath == "" {
		return nil, errors.New("-standby requires -lease")
	}
	return &cfg, nil
}

// parseJoin parses the -join value: comma-separated id=addr pairs.
func parseJoin(join string) (map[string]string, error) {
	if join == "" {
		return nil, nil
	}
	nodes := make(map[string]string)
	for _, pair := range strings.Split(join, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("malformed -join entry %q (want id=addr)", pair)
		}
		if _, dup := nodes[id]; dup {
			return nil, fmt.Errorf("duplicate node id %q in -join", id)
		}
		nodes[id] = addr
	}
	return nodes, nil
}
