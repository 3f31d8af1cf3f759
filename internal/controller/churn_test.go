package controller

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"syrep/internal/resilience/faultinject"
)

// churnArtifact is the committed SLO evidence of a churn run: the gate
// writes it as JSON when SYREP_CHURN_OUT names a file (the `make churn`
// target does), so the latency histogram and warm/cold split are reviewable.
type churnArtifact struct {
	Seed         int64      `json:"seed"`
	TargetEpochs int        `json:"targetEpochs"`
	Result       *SimResult `json:"result"`
}

// TestChurnSimulation is the churn gate: a seeded event stream, paced in
// logical time, driven through a live controller under -race, asserting
// the trichotomy, coalescing, epoch discipline, and warm-path dominance end
// to end.
//
// The default target keeps `go test` quick; `make churn` raises it to the
// full 1000 epochs via SYREP_CHURN_EPOCHS and commits the SLO artifact.
func TestChurnSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("churn simulation skipped in -short mode")
	}
	faultinject.LeakCheck(t)
	target := 150
	if s := os.Getenv("SYREP_CHURN_EPOCHS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("SYREP_CHURN_EPOCHS=%q is not a positive integer", s)
		}
		target = n
	}
	const seed = 42
	res, err := RunSim(context.Background(), SimConfig{Seed: seed, TargetEpochs: target})
	if err != nil {
		t.Fatal(err)
	}

	// Epoch coverage: the stream drove at least the target number of
	// distinct topology epochs (generation stops once reached).
	if res.Epochs < uint64(target) {
		t.Errorf("drove %d epochs, want >= %d", res.Epochs, target)
	}

	// Trichotomy: every offer is accounted for — rejected retryably at the
	// inbox, or settled on exactly one arm. RunSim already failed any
	// settlement outside the trichotomy; here the totals must balance.
	settled := 0
	for _, n := range res.Settled {
		settled += n
	}
	if res.Offered != res.Rejected+settled {
		t.Errorf("accounting leak: offered %d != rejected %d + settled %d",
			res.Offered, res.Rejected, settled)
	}
	if len(res.Settlements) != settled {
		t.Errorf("settlement log has %d entries, tallies say %d", len(res.Settlements), settled)
	}
	if res.Settled[OutcomePushed.String()] == 0 {
		t.Error("no event settled pushed")
	}

	// Coalescing: the flap bursts collapsed (each burst of 3 yields at most
	// one state change).
	if res.Coalesced == 0 {
		t.Error("no events coalesced despite flap bursts")
	}

	// Epoch discipline: RunSim's convergence check already proved no stale
	// table was pushed; at full scale the race window is hit often enough
	// that staleness discards must actually occur.
	if target >= 500 && res.Stale == 0 {
		t.Error("no stale repairs discarded over a full-scale run")
	}

	// Warm-path dominance: after the first few cold syntheses the cache
	// serves warm-start repairs — the paper's speedup claim, visible in the
	// repair mix and the latency histogram.
	if res.WarmRepairs <= res.ColdSynths {
		t.Errorf("warm repairs (%d) do not dominate cold syntheses (%d)",
			res.WarmRepairs, res.ColdSynths)
	}

	// The latency histogram observed every settlement — it is the SLO
	// evidence the artifact commits.
	if res.Latency.Count != int64(settled) {
		t.Errorf("latency histogram count = %d, want %d", res.Latency.Count, settled)
	}

	// An in-memory sink never fails: dead letters here would mean the
	// pusher invented failures.
	if res.DeadLetters != 0 {
		t.Errorf("%d dead letters against a reliable sink", res.DeadLetters)
	}

	t.Logf("churn: epochs=%d offered=%d settled=%v coalesced=%d stale=%d warm=%d cold=%d p99=%v",
		res.Epochs, res.Offered, res.Settled, res.Coalesced, res.Stale,
		res.WarmRepairs, res.ColdSynths, res.Latency.Quantile(0.99))

	if out := os.Getenv("SYREP_CHURN_OUT"); out != "" {
		art := churnArtifact{Seed: seed, TargetEpochs: target, Result: res}
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			t.Fatalf("marshal artifact: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write artifact: %v", err)
		}
		t.Logf("churn: SLO artifact written to %s", out)
	}
}
