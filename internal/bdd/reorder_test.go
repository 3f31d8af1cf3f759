package bdd

import (
	"math/rand"
	"testing"

	"syrep/internal/obs"
)

// observed returns a Manager with an observer attached, so a test can read
// its counters.
func observed() (*Manager, *obs.Observer) {
	o := obs.New(nil)
	m := New()
	m.Observe(o.BDD())
	return m, o
}

// truthTable evaluates f over all assignments of the first nvars variables.
func truthTable(m *Manager, f Ref, nvars int) uint64 {
	var table uint64
	for bits := uint(0); bits < 1<<nvars; bits++ {
		a := make(Assignment, nvars)
		for v := Var(0); int(v) < nvars; v++ {
			a[v] = bits&(1<<uint(v)) != 0
		}
		if m.Eval(f, a) {
			table |= 1 << bits
		}
	}
	return table
}

func TestSwapLevelsPreservesFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := New()
	m.NewVars("x", quickVars)
	type tracked struct {
		ref   Ref
		table uint64
	}
	var funcs []tracked
	for i := 0; i < 30; i++ {
		f := randFormula(rng, 4)
		ref := f.build(m)
		m.Ref(ref)
		funcs = append(funcs, tracked{ref: ref, table: truthTable(m, ref, quickVars)})
	}
	// Swap every adjacent pair a few times, in random order.
	for round := 0; round < 40; round++ {
		x := Var(rng.Intn(quickVars - 1))
		m.swapLevels(x)
		checkStructure(t, m)
		for i, fn := range funcs {
			if got := truthTable(m, fn.ref, quickVars); got != fn.table {
				t.Fatalf("round %d (swap at %d): function %d changed: %064b != %064b",
					round, x, i, got, fn.table)
			}
		}
	}
	// The permutation arrays stay mutually inverse.
	for v := Var(0); int(v) < quickVars; v++ {
		if m.level2var[m.var2level[v]] != v {
			t.Fatalf("permutation arrays inconsistent at %d", v)
		}
	}
}

// TestSwapLevelsGrowsTableMidPass fills the unique table to exactly its
// bucket count and then swaps two levels whose rewrites allocate, so the
// table must double while the rewritten upper nodes are off every chain. A
// rehash that walked the arena instead of the chains would link those nodes
// once there and again when the swap relinks them.
func TestSwapLevelsGrowsTableMidPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New()
	m.NewVars("x", quickVars)
	var formulas []*formula
	var refs []Ref
	var tables []uint64
	for i := 0; i < 30; i++ {
		f := randFormula(rng, 5)
		r := f.build(m)
		m.Ref(r)
		formulas, refs = append(formulas, f), append(refs, r)
		tables = append(tables, truthTable(m, r, quickVars))
	}
	m.GC()
	// Swap where the most upper nodes branch on the lower level.
	var x Var
	best := -1
	for l := Var(1); l+1 < quickVars; l++ {
		n := 0
		for r := Ref(2); int(r) < len(m.nodes); r++ {
			nd := m.nodes[r]
			if nd.level == l && (m.nodes[nd.low].level == l+1 || m.nodes[nd.high].level == l+1) {
				n++
			}
		}
		if n > best {
			x, best = l, n
		}
	}
	// Pad with unreferenced level-0 nodes over pairs of deeper nodes until
	// the live nodes fill the buckets: the swap makes the next allocation.
	var deep []Ref
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		if l := m.nodes[r].level; l > 0 && l != freeLevel {
			deep = append(deep, r)
		}
	}
	size := len(m.buckets)
pad:
	for _, lo := range deep {
		for _, hi := range deep {
			if m.NumNodes() == size {
				break pad
			}
			m.mk(0, lo, hi)
		}
	}
	if m.NumNodes() != size || len(m.buckets) != size {
		t.Fatalf("padding left %d nodes in %d buckets, want %d in %d", m.NumNodes(), len(m.buckets), size, size)
	}

	m.swapLevels(x)
	if len(m.buckets) <= size {
		t.Fatalf("swap at level %d (%d rewrites) did not grow the %d-bucket table", x, best, size)
	}
	checkStructure(t, m)
	for i, r := range refs {
		if got := truthTable(m, r, quickVars); got != tables[i] {
			t.Fatalf("function %d changed by the swap: %064b != %064b", i, got, tables[i])
		}
		if formulas[i].build(m) != r {
			t.Fatalf("function %d: canonicity lost after the swap", i)
		}
	}
	m.GC()
	checkStructure(t, m)
}

func TestSwapLevelsKeepsCanonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := New()
	m.NewVars("x", quickVars)
	var formulas []*formula
	var refs []Ref
	for i := 0; i < 20; i++ {
		f := randFormula(rng, 4)
		formulas = append(formulas, f)
		r := f.build(m)
		m.Ref(r)
		refs = append(refs, r)
	}
	for round := 0; round < 15; round++ {
		m.swapLevels(Var(rng.Intn(quickVars - 1)))
		// Rebuilding any formula must return the identical Ref (canonical
		// under the new order).
		for i, f := range formulas {
			if got := f.build(m); got != refs[i] {
				t.Fatalf("round %d: formula %d lost canonicity", round, i)
			}
		}
	}
}

func TestSwapLevelsNoOpAtLastLevel(t *testing.T) {
	m := New()
	vars := m.NewVars("x", 2)
	f := m.And(m.VarRef(vars[0]), m.VarRef(vars[1]))
	m.swapLevels(1) // only levels 0 and 1 exist; swapping at 1 is a no-op
	if !m.Eval(f, Assignment{vars[0]: true, vars[1]: true}) {
		t.Error("no-op swap corrupted function")
	}
}

func TestReorderPreservesFunctionsAndShrinks(t *testing.T) {
	// The classic interleaving example: with the order a1..an b1..bn the
	// function (a1∧b1) ∨ ... ∨ (an∧bn) has exponentially many nodes; with
	// a1 b1 a2 b2 ... it is linear. Build it under the BAD order and let
	// sifting find a good one.
	const n = 7
	m, o := observed()
	av := m.NewVars("a", n)
	bv := m.NewVars("b", n)
	f := False
	for i := 0; i < n; i++ {
		f = m.Or(f, m.And(m.VarRef(av[i]), m.VarRef(bv[i])))
	}
	m.Ref(f)
	m.GC() // drop intermediates so node counts reflect f alone
	before := m.NodeCount(f)

	// Remember the truth table on a sample of assignments (2^14 is fine).
	rng := rand.New(rand.NewSource(5))
	type sample struct {
		a    Assignment
		want bool
	}
	var samples []sample
	for i := 0; i < 200; i++ {
		a := make(Assignment, 2*n)
		for v := Var(0); v < 2*n; v++ {
			a[v] = rng.Intn(2) == 0
		}
		samples = append(samples, sample{a: a, want: m.Eval(f, a)})
	}

	m.Reorder(ReorderConfig{})
	m.GC()
	after := m.NodeCount(f)

	if after >= before {
		t.Errorf("sifting did not shrink the interleaving example: %d -> %d", before, after)
	}
	for i, s := range samples {
		if m.Eval(f, s.a) != s.want {
			t.Fatalf("sample %d: function changed by Reorder", i)
		}
	}
	if got := o.Snapshot().Counter(obs.BDDReorders); got != 1 {
		t.Errorf("reorders counter = %d, want 1", got)
	}
	t.Logf("interleaving example: %d nodes -> %d nodes", before, after)
}

func TestReorderKeepsCanonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	m := New()
	m.NewVars("x", quickVars)
	var formulas []*formula
	var refs []Ref
	var tables []uint64
	for i := 0; i < 25; i++ {
		f := randFormula(rng, 5)
		formulas = append(formulas, f)
		r := f.build(m)
		m.Ref(r)
		refs = append(refs, r)
		tables = append(tables, truthTable(m, r, quickVars))
	}
	m.Reorder(ReorderConfig{})
	for i := range formulas {
		if truthTable(m, refs[i], quickVars) != tables[i] {
			t.Fatalf("formula %d: function changed", i)
		}
		if formulas[i].build(m) != refs[i] {
			t.Fatalf("formula %d: canonicity lost", i)
		}
	}
	// Operations still work after reordering.
	g := m.And(refs[0], m.Not(refs[0]))
	if g != False {
		t.Error("And(f, ¬f) != False after reorder")
	}
}

func TestReorderMaxVars(t *testing.T) {
	m, o := observed()
	vars := m.NewVars("x", 6)
	f := False
	for i := 0; i+1 < len(vars); i += 2 {
		f = m.Or(f, m.And(m.VarRef(vars[i]), m.VarRef(vars[i+1])))
	}
	m.Ref(f)
	m.Reorder(ReorderConfig{MaxVars: 2})
	if o.Snapshot().Counter(obs.BDDReorders) != 1 {
		t.Error("Reorder did not run")
	}
}

func TestReorderTrivialManagers(t *testing.T) {
	m := New()
	m.Reorder(ReorderConfig{}) // no variables: no-op
	m.NewVar("only")
	m.Reorder(ReorderConfig{}) // single variable: no-op
}

func TestLevelAccessors(t *testing.T) {
	m := New()
	vars := m.NewVars("x", 3)
	for _, v := range vars {
		if m.LevelOf(v) != v || m.VarAtLevel(v) != v {
			t.Fatalf("identity permutation broken at %d", v)
		}
	}
	m.swapLevels(0)
	if m.LevelOf(vars[0]) != 1 || m.LevelOf(vars[1]) != 0 {
		t.Error("LevelOf not updated by swap")
	}
	if m.VarAtLevel(0) != vars[1] || m.VarAtLevel(1) != vars[0] {
		t.Error("VarAtLevel not updated by swap")
	}
	// VarOf reports the variable, not the level.
	x0 := m.VarRef(vars[0])
	if m.VarOf(x0) != vars[0] {
		t.Errorf("VarOf after swap = %d, want %d", m.VarOf(x0), vars[0])
	}
}

func TestOpsAfterReorderQuick(t *testing.T) {
	// Build random formulae, reorder, then keep computing: results must
	// still agree with the truth-table oracle.
	rng := rand.New(rand.NewSource(9))
	m := New()
	m.NewVars("x", quickVars)
	warm := randFormula(rng, 5).build(m)
	m.Ref(warm)
	m.Reorder(ReorderConfig{})
	for round := 0; round < 120; round++ {
		f := randFormula(rng, 4)
		ref := f.build(m)
		for bits := uint(0); bits < 1<<quickVars; bits++ {
			if m.Eval(ref, assignmentFromBits(bits)) != f.eval(bits) {
				t.Fatalf("round %d: post-reorder semantics diverged", round)
			}
		}
		if round%40 == 13 {
			m.Reorder(ReorderConfig{})
		}
	}
}

func TestRestrictAndQuantifiersAfterReorder(t *testing.T) {
	m := New()
	xs := m.NewVars("x", 4)
	f := m.Or(m.And(m.VarRef(xs[0]), m.VarRef(xs[1])), m.VarRef(xs[3]))
	m.Ref(f)
	m.swapLevels(1)
	m.swapLevels(0)

	// Restrict by variable id must still fix the right variable.
	got := m.Restrict(f, map[Var]bool{xs[0]: true})
	want := m.Or(m.VarRef(xs[1]), m.VarRef(xs[3]))
	if got != want {
		t.Error("Restrict wrong after reorder")
	}
	// Quantification by variable id (cube built after the swaps).
	cube := m.NewCube(xs[1])
	if m.Exists(f, cube) != m.Or(m.VarRef(xs[0]), m.VarRef(xs[3])) {
		t.Error("Exists wrong after reorder")
	}
	if m.ForAll(f, cube) != m.VarRef(xs[3]) {
		t.Error("ForAll wrong after reorder")
	}
	// Compose by variable id.
	if m.Compose(f, xs[3], False) != m.And(m.VarRef(xs[0]), m.VarRef(xs[1])) {
		t.Error("Compose wrong after reorder")
	}
}
