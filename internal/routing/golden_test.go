package routing_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"syrep/internal/core"
	"syrep/internal/network"
	"syrep/internal/topozoo"
)

// The goldens below pin synthesized tables across commits, which the
// determinism suite cannot: it compares two runs of one binary, so a change
// to the BDD core that renumbers Refs, moves a node-limit overflow point or
// picks a different satisfying assignment passes it unnoticed. Every value
// was produced by the pipeline before its BDD tables were rebuilt and must
// not move under any change that claims byte-identical output.

// zooNet returns the embedded topology with the given name.
func zooNet(t *testing.T, name string) *network.Network {
	t.Helper()
	for _, inst := range topozoo.Embedded() {
		if inst.Name == name {
			return inst.Net
		}
	}
	t.Fatalf("no embedded topology %q", name)
	return nil
}

// TestSynthesisGolden pins the k=2 Combined table of four single
// destinations whose repair runs through the BDD engine.
func TestSynthesisGolden(t *testing.T) {
	for _, tc := range []struct{ topo, dest, want string }{
		{"Abilene", "Denver", "86df6280bc37619256f1643b83ceb13a"},
		{"Abilene", "KansasCity", "87315b199a000d07bf93ab0d2b7ee942"},
		{"BizNet", "Hub3", "1edea53ddc207f26449da4abfde2410f"},
		{"Arpanet1970", "Harvard", "9b791b2aa6068bf36dd39794bc6f2e43"},
	} {
		t.Run(tc.topo+"/"+tc.dest, func(t *testing.T) {
			net := zooNet(t, tc.topo)
			dest := net.NodeByName(tc.dest)
			if dest == network.NoNode {
				t.Fatalf("%s has no node %q", tc.topo, tc.dest)
			}
			r, _, err := core.Synthesize(context.Background(), net, dest, 2, core.Options{})
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			if got := r.Fingerprint().String(); got != tc.want {
				t.Errorf("table fingerprint %s, want %s", got, tc.want)
			}
		})
	}
}

// TestSynthesizeAllGolden pins every destination's k=1 table of two
// all-destinations batches, which run on pooled, Reset managers. The digest
// covers the destination names and table fingerprints in result order.
func TestSynthesizeAllGolden(t *testing.T) {
	for _, tc := range []struct{ topo, want string }{
		{"Abilene", "0ae38ef80e64a6ff146edeaca53c5325"},
		{"Arnes", "70a89b023e1cc5aaf8b3e58936b4753c"},
	} {
		t.Run(tc.topo, func(t *testing.T) {
			net := zooNet(t, tc.topo)
			results, _, err := core.SynthesizeAll(context.Background(), net, 1, core.BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("SynthesizeAll: %v", err)
			}
			h := sha256.New()
			for _, res := range results {
				if res.Err != nil || res.Routing == nil {
					t.Fatalf("%s: no table: %v", res.Name, res.Err)
				}
				fp := res.Routing.Fingerprint().String()
				h.Write([]byte(res.Name + " " + fp + "\n"))
			}
			if got := hex.EncodeToString(h.Sum(nil))[:32]; got != tc.want {
				t.Errorf("batch digest %s, want %s", got, tc.want)
			}
		})
	}
}
