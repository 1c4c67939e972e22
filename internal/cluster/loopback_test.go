package cluster

import (
	"net"
	"testing"

	"trajforge/internal/shardstore"
)

// TestStartLoopback: every id gets a serving node and an address, a node
// that cannot start fails the whole call, and Close stops them all.
func TestStartLoopback(t *testing.T) {
	if lb, err := StartLoopback(shardstore.DefaultConfig(), []string{"n1", ""}, nil); err == nil {
		lb.Close()
		t.Fatal("an empty node id started")
	}

	lb, err := StartLoopback(shardstore.DefaultConfig(), []string{"n1", "n2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Nodes) != 2 || len(lb.Addrs) != 2 {
		t.Fatalf("started %d nodes at %d addresses, want 2 and 2", len(lb.Nodes), len(lb.Addrs))
	}
	for id, addr := range lb.Addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("node %s does not accept: %v", id, err)
		}
		conn.Close()
	}
	lb.Close()
	lb.Close() // harmless twice
	for id, addr := range lb.Addrs {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Fatalf("node %s still accepts after Close", id)
		}
	}
}
