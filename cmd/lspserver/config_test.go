package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"trajforge/internal/trust"
)

// TestParseConfig pins the command line: the defaults of a bare invocation,
// every requires rule between the cluster flags, node mode's refusal of the
// flags it does not read, and -join's pair syntax.
func TestParseConfig(t *testing.T) {
	const join = "n1=127.0.0.1:7101,n2=127.0.0.1:7102"
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"defaults", nil, ""},
		{"node mode", []string{"-node-id", "n1", "-cluster-listen", ":7101"}, ""},
		{"coordinator, everything on", []string{"-join", join, "-replicate", "-cluster-data-dir", "d", "-lease", "l",
			"-standby", "-repair-every", "1s", "-rebalance-every", "1s"}, ""},

		{"-node-id without -cluster-listen", []string{"-node-id", "n1"}, "-node-id requires -cluster-listen"},
		{"-cluster-listen without -node-id", []string{"-cluster-listen", ":7101"}, "-cluster-listen requires -node-id"},
		{"-replicate without -join", []string{"-replicate"}, "-replicate requires -join"},
		{"-cluster-data-dir without -join", []string{"-cluster-data-dir", "d"}, "-cluster-data-dir requires -join"},
		{"-lease without -join", []string{"-lease", "l"}, "-lease/-standby require -join"},
		{"-standby without -join", []string{"-standby"}, "-lease/-standby require -join"},
		{"-repair-every without -join", []string{"-repair-every", "1s"}, "-repair-every/-rebalance-every require -join"},
		{"-rebalance-every without -join", []string{"-rebalance-every", "1s"}, "-repair-every/-rebalance-every require -join"},
		{"-repair-every without -replicate", []string{"-join", join, "-repair-every", "1s"}, "-repair-every requires -replicate"},
		{"-standby without -lease", []string{"-join", join, "-standby"}, "-standby requires -lease"},
		{"node mode with -cluster-data-dir", []string{"-node-id", "n1", "-cluster-listen", ":7101", "-cluster-data-dir", "d"},
			"-cluster-data-dir is not read in node mode (a node takes -cluster-listen and -data-dir)"},
		{"node mode with -trust", []string{"-node-id", "n1", "-cluster-listen", ":7101", "-trust"},
			"-trust is not read in node mode (a node takes -cluster-listen and -data-dir)"},
		{"node mode with -join", []string{"-node-id", "n1", "-cluster-listen", ":7101", "-join", join},
			"-join is not read in node mode (a node takes -cluster-listen and -data-dir)"},
		{"node mode with -replicate", []string{"-node-id", "n1", "-cluster-listen", ":7101", "-replicate"},
			"-replicate is not read in node mode (a node takes -cluster-listen and -data-dir)"},

		{"-join pair without =", []string{"-join", "n1"}, `malformed -join entry "n1" (want id=addr)`},
		{"-join pair without id", []string{"-join", "=127.0.0.1:7101"}, `malformed -join entry "=127.0.0.1:7101" (want id=addr)`},
		{"-join pair without addr", []string{"-join", "n1=127.0.0.1:7101,n2="}, `malformed -join entry "n2=" (want id=addr)`},
		{"-join duplicate id", []string{"-join", "n1=a:1,n1=b:2"}, `duplicate node id "n1" in -join`},
	} {
		cfg, err := parseConfig(tc.args)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || cfg == nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}

	got, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &config{
		addr: ":8742", seed: 1, uploads: 300,
		leaseTTL: 5 * time.Second, coordID: "coord1",
		maxInflight: 4 * runtime.NumCPU(), uploadTimeout: 10 * time.Second, breakerCooldown: time.Second,
		maxSessions: 1024, sessionTTL: 10 * time.Minute, sessionWindow: 16,
		trustCfg: trust.DefaultConfig(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults:\n got %+v\nwant %+v", got, want)
	}

	// A node takes its identity, address and directory.
	node, err := parseConfig([]string{"-node-id", "n1", "-cluster-listen", ":7101", "-data-dir", "d"})
	if err != nil || node.nodeID != "n1" || node.clusterListen != ":7101" || node.dataDir != "d" {
		t.Errorf("node mode: %+v, %v", node, err)
	}
	coord, err := parseConfig([]string{"-join", " n1=a:1 , n2=b:2"})
	if err != nil || !reflect.DeepEqual(coord.clusterNodes, map[string]string{"n1": "a:1", "n2": "b:2"}) {
		t.Errorf("-join: %+v, %v", coord, err)
	}
}
