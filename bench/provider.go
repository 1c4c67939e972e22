package main

import (
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/detect"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/shardstore"
	"trajforge/internal/stream"
)

// profile is the provider configuration a workload runs against. Rules,
// the WiFi detector, IngestAccepted and WAL persistence (default
// PersistOptions) are always on.
type profile struct {
	// replay arms the DTW replay gate (threshold 1.2) — what the repo ships.
	// Without it every plausible upload reaches the RSSI detector.
	replay bool
	// clusterNodes > 0 puts the RSSI store on that many in-process shard
	// nodes behind a replicating coordinator over loopback.
	clusterNodes int
	// sessions enables the /v1/session endpoints (stream.Config{}).
	sessions bool
}

// backend is a fresh RSSI store seeded with the world's records.
type backend struct {
	store   rssimap.Backend
	local   *rssimap.Store  // store, when single-process
	cluster *cluster.Store  // store, when clustered
	nodes   []*cluster.Node // shard nodes to close
	addrs   []string        // their listen addresses, for the leak check
}

func (w *world) newBackend(p profile) (*backend, error) {
	if p.clusterNodes == 0 {
		st, err := rssimap.NewStore(rssimap.DefaultConfig(), w.seedRecords)
		if err != nil {
			return nil, err
		}
		return &backend{store: st, local: st}, nil
	}
	b := &backend{}
	shardCfg := shardstore.DefaultConfig()
	addrs := make(map[string]string, p.clusterNodes)
	for i := 1; i <= p.clusterNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		node, err := cluster.NewNode(id, shardCfg, cluster.NodeOptions{})
		if err != nil {
			b.close()
			return nil, err
		}
		b.nodes = append(b.nodes, node)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			b.close()
			return nil, err
		}
		addrs[id] = addr.String()
		b.addrs = append(b.addrs, addr.String())
	}
	cs, err := cluster.NewStore(cluster.Options{Shard: shardCfg, Nodes: addrs, Replicate: true})
	if err != nil {
		b.close()
		return nil, err
	}
	cs.Add(w.seedRecords)
	b.store, b.cluster = cs, cs
	return b, nil
}

func (b *backend) close() error {
	var err error
	if b.cluster != nil {
		err = b.cluster.Close()
	}
	for _, n := range b.nodes {
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newReplay returns the replay gate seeded with the provider's history.
func (w *world) newReplay() (*detect.ReplayChecker, error) {
	replay, err := detect.NewReplayChecker(1.2)
	if err != nil {
		return nil, err
	}
	for _, u := range w.seedHist {
		replay.AddHistory(u.Traj)
	}
	return replay, nil
}

// provider is one fresh verification server on a loopback listener.
type provider struct {
	svc     *server.Service
	persist *server.Persistence
	ts      *httptest.Server
	back    *backend
	dir     string
	url     string
}

// newProvider builds a provider with empty serving state: seed store, seed
// replay history, empty WAL in a fresh temp dir under tmpRoot.
func (w *world) newProvider(p profile, tmpRoot string) (*provider, error) {
	back, err := w.newBackend(p)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Projection:     w.projection,
		Rules:          detect.NewRuleChecker(),
		WiFi:           &detect.WiFiDetector{Store: back.store, Model: w.model, Features: w.features},
		IngestAccepted: true,
	}
	if p.replay {
		if cfg.Replay, err = w.newReplay(); err != nil {
			back.close()
			return nil, err
		}
	}
	if p.sessions {
		cfg.Stream = &stream.Config{}
	}
	dir, err := os.MkdirTemp(tmpRoot, "provider-")
	if err != nil {
		back.close()
		return nil, err
	}
	persist, err := server.OpenPersistence(dir, server.PersistOptions{})
	if err != nil {
		back.close()
		os.RemoveAll(dir)
		return nil, err
	}
	cfg.Persist = persist
	svc, err := server.New(cfg)
	if err != nil {
		back.close()
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	return &provider{svc: svc, persist: persist, ts: ts, back: back, dir: dir, url: ts.URL}, nil
}

func (p *provider) close() error {
	p.ts.Close()
	err := p.svc.Close()
	if cerr := p.back.close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// checkTornDown fails when a provider's teardown left a goroutine running
// or a shard listener accepting. Goroutines wind down asynchronously after
// their connections close, so the count is polled for a grace period.
func checkTornDown(baseline int, addrs []string) error {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines left after teardown, %d before the provider was built",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			conn.Close()
			return fmt.Errorf("shard listener %s still accepts after teardown", addr)
		}
	}
	return nil
}
