package bdd_test

import (
	"testing"

	"syrep/internal/bdd"
	"syrep/internal/obs"
)

// buildAndChurn creates some structure, garbage-collects, and reorders, so
// every instrumented code path fires at least once. On repeat calls it
// reuses the manager's existing variables (declaring new ones after a
// reorder is not supported).
func buildAndChurn(t *testing.T, m *bdd.Manager) {
	t.Helper()
	var vars []bdd.Var
	if m.NumVars() == 0 {
		vars = m.NewVars("x", 6)
	} else {
		for v := 0; v < m.NumVars(); v++ {
			vars = append(vars, bdd.Var(v))
		}
	}
	var f bdd.Ref = bdd.True
	err := m.Protect(func() error {
		for _, v := range vars {
			f = m.And(f, m.Or(m.VarRef(v), m.NVarRef(vars[0])))
			m.Ref(f)
		}
		// Re-run an op to hit the apply cache.
		_ = m.And(m.VarRef(vars[1]), m.VarRef(vars[2]))
		_ = m.And(m.VarRef(vars[1]), m.VarRef(vars[2]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.GC()
	m.Reorder(bdd.ReorderConfig{})
}

// TestObserveTaps: with an observer attached, every instrumented path of
// the fixture shows up in the taps, which are the Manager's only counters.
func TestObserveTaps(t *testing.T) {
	o := obs.New(nil)
	m := bdd.New()
	m.Observe(o.BDD())
	buildAndChurn(t, m)
	snap := o.Snapshot()
	if snap.Counter(obs.BDDMkCalls) == 0 || snap.Counter(obs.BDDCacheMisses) == 0 {
		t.Error("fixture never called mk or missed the apply cache")
	}
	if snap.Counter(obs.BDDNodesFreed) == 0 {
		t.Error("fixture's GC freed nothing")
	}
	if snap.Counter(obs.BDDCacheHits) == 0 {
		t.Error("fixture never hit the apply cache")
	}
	if snap.Counter(obs.BDDGCRuns) == 0 || snap.Counter(obs.BDDReorders) == 0 {
		t.Error("fixture never collected or reordered")
	}
	if alloc := snap.Counter(obs.BDDNodesAllocated); alloc <= 0 {
		t.Errorf("nodes allocated = %d, want > 0", alloc)
	}
	if peak := snap.Gauge(obs.BDDPeakNodes); peak < int64(m.NumNodes()) {
		t.Errorf("peak gauge %d below live node count %d", peak, m.NumNodes())
	}
}

// TestObserveDetach: Observe(nil) detaches the taps; further work must not
// move the counters.
func TestObserveDetach(t *testing.T) {
	o := obs.New(nil)
	m := bdd.New()
	m.Observe(o.BDD())
	buildAndChurn(t, m)
	before := o.Snapshot().Counter(obs.BDDMkCalls)
	if before == 0 {
		t.Fatal("no mk calls observed before detach")
	}
	m.Observe(nil)
	buildAndChurn(t, m)
	if after := o.Snapshot().Counter(obs.BDDMkCalls); after != before {
		t.Errorf("detached manager still counted: %d -> %d", before, after)
	}
}

// TestUnobservedManagerRuns: the default Manager (nil taps everywhere) runs
// the whole fixture, proving the nil fast path is exercised by every op.
func TestUnobservedManagerRuns(t *testing.T) {
	m := bdd.New()
	buildAndChurn(t, m)
	if m.NumNodes() <= 2 {
		t.Errorf("fixture left %d live nodes, want its protected functions", m.NumNodes())
	}
}
