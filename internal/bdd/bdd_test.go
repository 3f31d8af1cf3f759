package bdd

import (
	"strings"
	"testing"
)

func newMgr(t testing.TB, nvars int) (*Manager, []Var) {
	t.Helper()
	m := New()
	vars := m.NewVars("x", nvars)
	return m, vars
}

func TestTerminals(t *testing.T) {
	m := New()
	if !IsTerminal(True) || !IsTerminal(False) {
		t.Fatal("terminals not terminal")
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Error("Not on terminals broken")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Error("And/Or on terminals broken")
	}
	if m.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", m.NumNodes())
	}
}

func TestVarBasics(t *testing.T) {
	m, xs := newMgr(t, 3)
	x := m.VarRef(xs[0])
	if IsTerminal(x) {
		t.Fatal("var is terminal")
	}
	if m.VarOf(x) != xs[0] {
		t.Errorf("VarOf = %d, want %d", m.VarOf(x), xs[0])
	}
	if m.Low(x) != False || m.High(x) != True {
		t.Error("var cofactors wrong")
	}
	if m.VarRef(xs[0]) != x {
		t.Error("hash-consing failed: same var, different nodes")
	}
	nx := m.NVarRef(xs[0])
	if m.Not(x) != nx {
		t.Error("Not(x) != NVarRef(x)")
	}
	if m.Lit(xs[1], true) != m.VarRef(xs[1]) || m.Lit(xs[1], false) != m.NVarRef(xs[1]) {
		t.Error("Lit inconsistent")
	}
	if m.VarName(xs[2]) != "x2" {
		t.Errorf("VarName = %q", m.VarName(xs[2]))
	}
	if m.VarName(Var(99)) != "x99" {
		t.Errorf("VarName(out of range) = %q", m.VarName(Var(99)))
	}
}

func TestNamedVar(t *testing.T) {
	m := New()
	v := m.NewVar("alpha")
	if m.VarName(v) != "alpha" {
		t.Errorf("VarName = %q, want alpha", m.VarName(v))
	}
	w := m.NewVar("")
	if m.VarName(w) != "x1" {
		t.Errorf("default VarName = %q, want x1", m.VarName(w))
	}
	if m.NumVars() != 2 {
		t.Errorf("NumVars = %d", m.NumVars())
	}
}

func TestCanonicity(t *testing.T) {
	m, xs := newMgr(t, 3)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	c := m.VarRef(xs[2])
	// (a ∧ b) ∨ c built two different ways must be pointer-identical.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Not(m.And(m.Not(m.And(a, b)), m.Not(c))) // De Morgan
	if f1 != f2 {
		t.Error("equivalent formulae produced different nodes")
	}
	// Distribution: a ∧ (b ∨ c) == (a∧b) ∨ (a∧c).
	if m.And(a, m.Or(b, c)) != m.Or(m.And(a, b), m.And(a, c)) {
		t.Error("distribution law violated")
	}
}

func TestConnectives(t *testing.T) {
	m, xs := newMgr(t, 2)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	type tc struct {
		name string
		got  Ref
		want func(av, bv bool) bool
	}
	tests := []tc{
		{"and", m.And(a, b), func(av, bv bool) bool { return av && bv }},
		{"or", m.Or(a, b), func(av, bv bool) bool { return av || bv }},
		{"xor", m.Xor(a, b), func(av, bv bool) bool { return av != bv }},
		{"nand", m.Apply(OpNand, a, b), func(av, bv bool) bool { return !(av && bv) }},
		{"nor", m.Apply(OpNor, a, b), func(av, bv bool) bool { return !(av || bv) }},
		{"imp", m.Imp(a, b), func(av, bv bool) bool { return !av || bv }},
		{"biimp", m.Biimp(a, b), func(av, bv bool) bool { return av == bv }},
		{"diff", m.Diff(a, b), func(av, bv bool) bool { return av && !bv }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, av := range []bool{false, true} {
				for _, bv := range []bool{false, true} {
					assign := Assignment{xs[0]: av, xs[1]: bv}
					if got, want := m.Eval(tt.got, assign), tt.want(av, bv); got != want {
						t.Errorf("%s(%v,%v) = %v, want %v", tt.name, av, bv, got, want)
					}
				}
			}
		})
	}
}

func TestOpString(t *testing.T) {
	if OpAnd.String() != "and" || OpBiimp.String() != "biimp" {
		t.Error("Op.String broken")
	}
	if Op(99).String() != "op?" {
		t.Error("unknown Op.String broken")
	}
}

func TestIte(t *testing.T) {
	m, xs := newMgr(t, 3)
	f := m.VarRef(xs[0])
	g := m.VarRef(xs[1])
	h := m.VarRef(xs[2])
	ite := m.Ite(f, g, h)
	want := m.Or(m.And(f, g), m.And(m.Not(f), h))
	if ite != want {
		t.Error("Ite differs from its definition")
	}
	if m.Ite(True, g, h) != g || m.Ite(False, g, h) != h {
		t.Error("Ite terminal cases broken")
	}
	if m.Ite(f, True, False) != f {
		t.Error("Ite(f,1,0) != f")
	}
	if m.Ite(f, False, True) != m.Not(f) {
		t.Error("Ite(f,0,1) != ¬f")
	}
	if m.Ite(f, g, g) != g {
		t.Error("Ite(f,g,g) != g")
	}
}

func TestAndNOrN(t *testing.T) {
	m, xs := newMgr(t, 4)
	lits := make([]Ref, len(xs))
	for i, v := range xs {
		lits[i] = m.VarRef(v)
	}
	all := m.AndN(lits...)
	any := m.OrN(lits...)
	assign := Assignment{}
	for _, v := range xs {
		assign[v] = true
	}
	if !m.Eval(all, assign) || !m.Eval(any, assign) {
		t.Error("AndN/OrN under all-true")
	}
	assign[xs[2]] = false
	if m.Eval(all, assign) || !m.Eval(any, assign) {
		t.Error("AndN/OrN under one-false")
	}
	if m.AndN() != True || m.OrN() != False {
		t.Error("empty folds wrong")
	}
	if m.AndN(lits[0], False, lits[1]) != False {
		t.Error("AndN short-circuit wrong")
	}
	if m.OrN(lits[0], True) != True {
		t.Error("OrN short-circuit wrong")
	}
}

func TestExistsForAll(t *testing.T) {
	m, xs := newMgr(t, 3)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	c := m.VarRef(xs[2])
	f := m.Or(m.And(a, b), c)
	cubeB := m.NewCube(xs[1])

	// ∃b. (a∧b ∨ c) == a ∨ c
	if got, want := m.Exists(f, cubeB), m.Or(a, c); got != want {
		t.Error("Exists wrong")
	}
	// ∀b. (a∧b ∨ c) == c
	if got, want := m.ForAll(f, cubeB), c; got != want {
		t.Error("ForAll wrong")
	}
	// Quantifying a variable not in support is identity.
	g := m.And(a, c)
	if m.Exists(g, cubeB) != g || m.ForAll(g, cubeB) != g {
		t.Error("quantifying non-support var changed function")
	}
	// Empty cube is identity.
	if m.Exists(f, m.NewCube()) != f || m.ForAll(f, m.NewCube()) != f {
		t.Error("empty cube not identity")
	}
	// Quantifier duality: ∃x.f == ¬∀x.¬f
	cubeAll := m.NewCube(xs...)
	if m.Exists(f, cubeAll) != m.Not(m.ForAll(m.Not(f), cubeAll)) {
		t.Error("quantifier duality violated")
	}
}

func TestCubeDedupAndContains(t *testing.T) {
	m, xs := newMgr(t, 4)
	c := m.NewCube(xs[3], xs[1], xs[3], xs[0])
	got := c.Vars()
	want := []Var{xs[0], xs[1], xs[3]}
	if len(got) != len(want) {
		t.Fatalf("cube vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cube vars = %v, want %v", got, want)
		}
	}
	if !c.contains(xs[1]) || c.contains(xs[2]) {
		t.Error("contains broken")
	}
}

func TestAndExistsEqualsComposed(t *testing.T) {
	m, xs := newMgr(t, 4)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	c := m.VarRef(xs[2])
	d := m.VarRef(xs[3])
	f := m.Or(m.And(a, b), m.And(c, d))
	g := m.Xor(b, c)
	cube := m.NewCube(xs[1], xs[2])
	if m.AndExists(f, g, cube) != m.Exists(m.And(f, g), cube) {
		t.Error("AndExists != Exists∘And")
	}
	// Special cases.
	if m.AndExists(False, g, cube) != False || m.AndExists(f, False, cube) != False {
		t.Error("AndExists with False")
	}
	if m.AndExists(True, g, cube) != m.Exists(g, cube) {
		t.Error("AndExists with True")
	}
	if m.AndExists(f, f, cube) != m.Exists(f, cube) {
		t.Error("AndExists(f,f)")
	}
}

func TestRestrict(t *testing.T) {
	m, xs := newMgr(t, 3)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	c := m.VarRef(xs[2])
	f := m.Or(m.And(a, b), c)
	// f[a:=1] = b ∨ c
	if got, want := m.Restrict(f, map[Var]bool{xs[0]: true}), m.Or(b, c); got != want {
		t.Error("Restrict a:=1 wrong")
	}
	// f[a:=0] = c
	if got, want := m.Restrict(f, map[Var]bool{xs[0]: false}), c; got != want {
		t.Error("Restrict a:=0 wrong")
	}
	// Simultaneous restriction.
	if got, want := m.Restrict(f, map[Var]bool{xs[0]: true, xs[1]: false}), c; got != want {
		t.Error("simultaneous Restrict wrong")
	}
	// Empty assignment is identity.
	if m.Restrict(f, nil) != f {
		t.Error("empty Restrict not identity")
	}
	// Restricting a variable outside the support is identity.
	if m.Restrict(c, map[Var]bool{xs[0]: true}) != c {
		t.Error("Restrict outside support changed function")
	}
}

func TestCompose(t *testing.T) {
	m, xs := newMgr(t, 3)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	c := m.VarRef(xs[2])
	f := m.Xor(a, b)
	// f[b := a∧c] == a ⊕ (a∧c)
	got := m.Compose(f, xs[1], m.And(a, c))
	want := m.Xor(a, m.And(a, c))
	if got != want {
		t.Error("Compose wrong")
	}
	// Composing a variable below the function's support is identity.
	if m.Compose(a, xs[2], c) != a {
		t.Error("Compose outside support changed function")
	}
	// Compose with constant equals Restrict.
	if m.Compose(f, xs[1], True) != m.Restrict(f, map[Var]bool{xs[1]: true}) {
		t.Error("Compose with True != Restrict")
	}
}

func TestReplace(t *testing.T) {
	m := New()
	// Interleaved current/next variables: c0,n0,c1,n1.
	c0 := m.NewVar("c0")
	n0 := m.NewVar("n0")
	c1 := m.NewVar("c1")
	n1 := m.NewVar("n1")
	f := m.And(m.VarRef(c0), m.Not(m.VarRef(c1)))
	rep := m.NewReplacement(map[Var]Var{c0: n0, c1: n1})
	got := m.Replace(f, rep)
	want := m.And(m.VarRef(n0), m.Not(m.VarRef(n1)))
	if got != want {
		t.Error("Replace wrong")
	}
	if m.Replace(True, rep) != True {
		t.Error("Replace on terminal")
	}
}

func TestReplaceOrderViolationPanics(t *testing.T) {
	m := New()
	a := m.NewVar("a")
	b := m.NewVar("b")
	f := m.And(m.VarRef(a), m.VarRef(b))
	rep := m.NewReplacement(map[Var]Var{a: b, b: a}) // swap: not order-preserving
	defer func() {
		if recover() == nil {
			t.Error("order-violating Replace did not panic")
		}
	}()
	m.Replace(f, rep)
}

func TestSatCount(t *testing.T) {
	m, xs := newMgr(t, 3)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	c := m.VarRef(xs[2])
	tests := []struct {
		name string
		f    Ref
		want float64
	}{
		{"false", False, 0},
		{"true", True, 8},
		{"a", a, 4},
		{"c (last var)", c, 4},
		{"a and b", m.And(a, b), 2},
		{"a or b", m.Or(a, b), 6},
		{"a xor c", m.Xor(a, c), 4},
		{"a and b and c", m.AndN(a, b, c), 1},
	}
	for _, tt := range tests {
		if got := m.SatCount(tt.f); got != tt.want {
			t.Errorf("SatCount(%s) = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestAnySat(t *testing.T) {
	m, xs := newMgr(t, 3)
	a := m.VarRef(xs[0])
	c := m.VarRef(xs[2])
	f := m.And(a, m.Not(c))
	assign := m.AnySat(f)
	if assign == nil {
		t.Fatal("AnySat returned nil for satisfiable function")
	}
	if !m.Eval(f, assign) {
		t.Errorf("AnySat assignment %v does not satisfy f", assign)
	}
	if m.AnySat(False) != nil {
		t.Error("AnySat(False) != nil")
	}
	if got := m.AnySat(True); len(got) != 0 {
		t.Errorf("AnySat(True) = %v, want empty", got)
	}
}

func TestAllSat(t *testing.T) {
	m, xs := newMgr(t, 2)
	a := m.VarRef(xs[0])
	b := m.VarRef(xs[1])
	f := m.Xor(a, b)
	var count int
	m.AllSat(f, func(assign Assignment) bool {
		count++
		if !m.Eval(f, assign) {
			t.Errorf("AllSat produced non-satisfying %v", assign)
		}
		return true
	})
	if count != 2 {
		t.Errorf("AllSat paths = %d, want 2", count)
	}
	// Early stop.
	count = 0
	completed := m.AllSat(m.Or(a, b), func(Assignment) bool {
		count++
		return false
	})
	if completed || count != 1 {
		t.Errorf("early stop: completed=%v count=%d", completed, count)
	}
}

func TestSupport(t *testing.T) {
	m, xs := newMgr(t, 4)
	f := m.And(m.VarRef(xs[0]), m.Xor(m.VarRef(xs[2]), m.VarRef(xs[3])))
	got := m.Support(f)
	want := []Var{xs[0], xs[2], xs[3]}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	if len(m.Support(True)) != 0 {
		t.Error("Support(True) not empty")
	}
}

func TestNodeCount(t *testing.T) {
	m, xs := newMgr(t, 3)
	if m.NodeCount(True) != 0 {
		t.Error("NodeCount(True) != 0")
	}
	if m.NodeCount(m.VarRef(xs[0])) != 1 {
		t.Error("NodeCount(var) != 1")
	}
	f := m.Xor(m.Xor(m.VarRef(xs[0]), m.VarRef(xs[1])), m.VarRef(xs[2]))
	// Parity over 3 vars: levels 0 has 1 node, level 1 has 2, level 2 has 2.
	if got := m.NodeCount(f); got != 5 {
		t.Errorf("NodeCount(parity3) = %d, want 5", got)
	}
}

func TestGC(t *testing.T) {
	m, xs := newMgr(t, 8)
	keep := m.Ref(m.And(m.VarRef(xs[0]), m.VarRef(xs[1])))
	// Build garbage.
	f := True
	for _, v := range xs {
		f = m.Xor(f, m.VarRef(v))
	}
	before := m.NumNodes()
	freed := m.GC()
	if freed == 0 {
		t.Error("GC freed nothing despite garbage")
	}
	if m.NumNodes() >= before {
		t.Errorf("NumNodes %d not reduced from %d", m.NumNodes(), before)
	}
	// The protected function still evaluates correctly.
	if !m.Eval(keep, Assignment{xs[0]: true, xs[1]: true}) {
		t.Error("protected node corrupted by GC")
	}
	// Rebuilding the collected function works and is canonical.
	f2 := True
	for _, v := range xs {
		f2 = m.Xor(f2, m.VarRef(v))
	}
	if !m.Eval(f2, Assignment{}) { // parity of zero trues, xor'd with True
		t.Error("rebuilt function wrong after GC")
	}
	m.Deref(keep)
	m.GC()
	_ = f
}

func TestGCRefCountNesting(t *testing.T) {
	m, xs := newMgr(t, 2)
	f := m.And(m.VarRef(xs[0]), m.VarRef(xs[1]))
	m.Ref(f)
	m.Ref(f)
	m.Deref(f)
	m.GC()
	// Still protected once: must survive.
	if m.Eval(f, Assignment{xs[0]: true, xs[1]: true}) != true {
		t.Error("node freed despite remaining protection")
	}
	m.Deref(f)
}

func TestNodeLimit(t *testing.T) {
	m := NewWithConfig(Config{NodeLimit: 16})
	xs := m.NewVars("x", 20)
	err := m.Protect(func() error {
		f := False
		for i := 0; i+1 < len(xs); i += 2 {
			f = m.Or(f, m.And(m.VarRef(xs[i]), m.VarRef(xs[i+1])))
		}
		return nil
	})
	if err != ErrNodeLimit {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
	if !m.Overflowed() {
		t.Error("Overflowed = false")
	}
}

func TestProtectPassesThroughErrors(t *testing.T) {
	m := New()
	sentinel := errString("boom")
	if err := m.Protect(func() error { return sentinel }); err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
	if err := m.Protect(func() error { return nil }); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}

func TestProtectRepanicsOnForeignPanic(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("foreign panic swallowed")
		}
	}()
	_ = m.Protect(func() error { panic("other") })
}

type errString string

func (e errString) Error() string { return string(e) }

func TestWriteDOT(t *testing.T) {
	m, xs := newMgr(t, 2)
	f := m.And(m.VarRef(xs[0]), m.Not(m.VarRef(xs[1])))
	var sb strings.Builder
	if err := m.WriteDOT(&sb, f, "test"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "x0", "x1", "style=dotted", "shape=box"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestEvalDefaultsMissingVarsToFalse(t *testing.T) {
	m, xs := newMgr(t, 2)
	f := m.Or(m.VarRef(xs[0]), m.Not(m.VarRef(xs[1])))
	if !m.Eval(f, Assignment{}) { // x1=false makes ¬x1 true
		t.Error("Eval with empty assignment wrong")
	}
}

func TestVarOfPanicsOnTerminal(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("VarOf(True) did not panic")
		}
	}()
	m.VarOf(True)
}
