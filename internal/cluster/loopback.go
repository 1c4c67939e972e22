package cluster

import (
	"fmt"

	"trajforge/internal/shardstore"
)

// Loopback is a set of in-process shard nodes serving on loopback TCP: what
// the chaos explorers, the load generator and the tests put under a
// coordinator instead of separate node processes.
type Loopback struct {
	// Nodes holds every started node by member id.
	Nodes map[string]*Node
	// Addrs maps member id → bound address, the shape Options.Nodes takes.
	Addrs map[string]string
}

// StartLoopback starts one node per id on an ephemeral 127.0.0.1 port.
// opts supplies each node's options; nil starts every node memory-only.
// When any node fails to open or listen, the ones already started are
// closed and the error is returned.
func StartLoopback(cfg shardstore.Config, ids []string, opts func(id string) NodeOptions) (*Loopback, error) {
	lb := &Loopback{
		Nodes: make(map[string]*Node, len(ids)),
		Addrs: make(map[string]string, len(ids)),
	}
	for _, id := range ids {
		var nopts NodeOptions
		if opts != nil {
			nopts = opts(id)
		}
		node, err := NewNode(id, cfg, nopts)
		if err != nil {
			lb.Close()
			return nil, fmt.Errorf("cluster: start node %s: %w", id, err)
		}
		lb.Nodes[id] = node
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			lb.Close()
			return nil, fmt.Errorf("cluster: start node %s: %w", id, err)
		}
		lb.Addrs[id] = addr.String()
	}
	return lb, nil
}

// Close stops every node. Closing twice, or after a node was closed
// individually, is harmless; per-node close errors are dropped because
// every caller is tearing an in-process cluster down.
func (lb *Loopback) Close() {
	for _, n := range lb.Nodes {
		n.Close()
	}
}
