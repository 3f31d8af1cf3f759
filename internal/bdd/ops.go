package bdd

import "fmt"

// Boolean operations with memoisation. All binary connectives are routed
// through a single Apply with per-operator terminal rules; ITE, negation,
// quantification, substitution and restriction have dedicated recursions.

// Op selects a binary Boolean connective for Apply.
type Op uint8

// Binary connectives.
const (
	OpAnd Op = iota + 1
	OpOr
	OpXor
	OpNand
	OpNor
	OpImp   // a implies b
	OpBiimp // a iff b
	OpDiff  // a and not b
)

// opNames indexes Op for diagnostics.
var opNames = [...]string{
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNand: "nand",
	OpNor: "nor", OpImp: "imp", OpBiimp: "biimp", OpDiff: "diff",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// cacheKey memoises unary, binary and ternary operations. kind disambiguates
// the operation family; c doubles as the extra operand (ITE third argument,
// quantification cube, substitution id, ...).
type cacheKey struct {
	kind    uint8
	op      Op
	a, b, c Ref
}

const (
	kindApply = iota + 1
	kindNot
	kindIte
	kindExists
	kindForAll
	kindAndExists
	kindCompose
	kindReplace
	kindRestrict
	kindSatCount
)

// cacheEntry is one slot of the operation cache. A zero kind marks an
// empty slot, which no key matches.
type cacheEntry struct {
	key cacheKey
	r   Ref
}

// The operation cache is lossy and direct-mapped, as in CUDD: a key has one
// slot, and a put overwrites whatever sits there. Losing an entry only makes
// a recursion recompute a result, never changes it, and never changes which
// nodes get allocated: the cache is emptied whenever a node dies or is
// rewritten (GC, reordering, Reset), so every node the evicted computation
// built still exists and the recomputation's mk calls all find them. The
// sequence of node allocations, and hence every Ref, is therefore the same
// as under an exact cache; only mk calls and the hit ratio move.
//
// The cache follows the unique table in size, one slot per two buckets
// (cacheSize), so a small solve keeps a small cache; it never shrinks, and
// stops growing at maxCache slots (20 MiB).
const maxCache = 1 << 20

// cacheSize returns the cache slots for a unique table of the given size.
func cacheSize(buckets int) int { return max(minTable, min(buckets/2, maxCache)) }

// cacheSlot returns the slot of key k.
func (m *Manager) cacheSlot(k cacheKey) *cacheEntry {
	h := (uint64(uint32(k.a))<<32 | uint64(uint32(k.b))) * 0x9E3779B97F4A7C15
	h ^= (uint64(uint32(k.c))<<16 | uint64(k.kind)<<8 | uint64(k.op)) * 0xC2B2AE3D27D4EB4F
	return &m.cache[h>>m.cacheShift]
}

// resizeCache replaces the cache with one of size slots, carrying the
// current entries over.
func (m *Manager) resizeCache(size int) {
	old := m.cache
	m.cache = make([]cacheEntry, size)
	m.cacheShift = tableShift(size)
	if !m.cacheFilled {
		return
	}
	for _, e := range old {
		if e.key.kind != 0 {
			*m.cacheSlot(e.key) = e
		}
	}
}

// clearCache empties the cache. Sifting collects and swaps many times in a
// row with no operation in between, so only the first call after a put pays
// for the clear.
func (m *Manager) clearCache() {
	if m.cacheFilled {
		clear(m.cache)
		m.cacheFilled = false
	}
}

func (m *Manager) cacheGet(k cacheKey) (Ref, bool) {
	if e := m.cacheSlot(k); e.key == k {
		m.obsCacheHit.Inc()
		return e.r, true
	}
	m.obsCacheMiss.Inc()
	return False, false
}

func (m *Manager) cachePut(k cacheKey, r Ref) {
	*m.cacheSlot(k) = cacheEntry{key: k, r: r}
	m.cacheFilled = true
}

// And returns a ∧ b.
func (m *Manager) And(a, b Ref) Ref { return m.Apply(OpAnd, a, b) }

// Or returns a ∨ b.
func (m *Manager) Or(a, b Ref) Ref { return m.Apply(OpOr, a, b) }

// Xor returns a ⊕ b.
func (m *Manager) Xor(a, b Ref) Ref { return m.Apply(OpXor, a, b) }

// Imp returns a → b.
func (m *Manager) Imp(a, b Ref) Ref { return m.Apply(OpImp, a, b) }

// Biimp returns a ↔ b.
func (m *Manager) Biimp(a, b Ref) Ref { return m.Apply(OpBiimp, a, b) }

// Diff returns a ∧ ¬b.
func (m *Manager) Diff(a, b Ref) Ref { return m.Apply(OpDiff, a, b) }

// AndN folds And over its arguments (True for none).
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := True
	for _, f := range fs {
		acc = m.And(acc, f)
		if acc == False {
			return False
		}
	}
	return acc
}

// OrN folds Or over its arguments (False for none).
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Or(acc, f)
		if acc == True {
			return True
		}
	}
	return acc
}

// applyTerminal resolves op when either operand is constant or operands are
// equal. ok=false means no shortcut applies.
func applyTerminal(op Op, a, b Ref) (Ref, bool) {
	switch op {
	case OpAnd:
		switch {
		case a == False || b == False:
			return False, true
		case a == True:
			return b, true
		case b == True:
			return a, true
		case a == b:
			return a, true
		}
	case OpOr:
		switch {
		case a == True || b == True:
			return True, true
		case a == False:
			return b, true
		case b == False:
			return a, true
		case a == b:
			return a, true
		}
	case OpXor:
		switch {
		case a == b:
			return False, true
		case a == False:
			return b, true
		case b == False:
			return a, true
		}
	case OpNand:
		if a == False || b == False {
			return True, true
		}
	case OpNor:
		if a == True || b == True {
			return False, true
		}
	case OpImp:
		switch {
		case a == False || b == True:
			return True, true
		case a == True:
			return b, true
		case a == b:
			return True, true
		}
	case OpBiimp:
		switch {
		case a == b:
			return True, true
		case a == True:
			return b, true
		case b == True:
			return a, true
		}
	case OpDiff:
		switch {
		case a == False || b == True:
			return False, true
		case b == False:
			return a, true
		case a == b:
			return False, true
		}
	}
	if IsTerminal(a) && IsTerminal(b) {
		av, bv := a == True, b == True
		var r bool
		switch op {
		case OpAnd:
			r = av && bv
		case OpOr:
			r = av || bv
		case OpXor:
			r = av != bv
		case OpNand:
			r = !(av && bv)
		case OpNor:
			r = !(av || bv)
		case OpImp:
			r = !av || bv
		case OpBiimp:
			r = av == bv
		case OpDiff:
			r = av && !bv
		}
		if r {
			return True, true
		}
		return False, true
	}
	return False, false
}

// Apply computes op(a, b) by Shannon expansion with memoisation.
func (m *Manager) Apply(op Op, a, b Ref) Ref {
	if r, ok := applyTerminal(op, a, b); ok {
		return r
	}
	// Normalise commutative operators for better cache hit rates.
	switch op {
	case OpAnd, OpOr, OpXor, OpNand, OpNor, OpBiimp:
		if a > b {
			a, b = b, a
		}
	}
	key := cacheKey{kind: kindApply, op: op, a: a, b: b}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	la, lb := m.level(a), m.level(b)
	top := la
	if lb < top {
		top = lb
	}
	a0, a1 := a, a
	if la == top {
		a0, a1 = m.nodes[a].low, m.nodes[a].high
	}
	b0, b1 := b, b
	if lb == top {
		b0, b1 = m.nodes[b].low, m.nodes[b].high
	}
	low := m.Apply(op, a0, b0)
	high := m.Apply(op, a1, b1)
	r := m.mk(top, low, high)
	m.cachePut(key, r)
	return r
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	key := cacheKey{kind: kindNot, a: f}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(n.level, m.Not(n.low), m.Not(n.high))
	m.cachePut(key, r)
	return r
}

// Ite returns if f then g else h.
func (m *Manager) Ite(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.Not(f)
	}
	key := cacheKey{kind: kindIte, a: f, b: g, c: h}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	cof := func(x Ref) (Ref, Ref) {
		if m.level(x) == top {
			return m.nodes[x].low, m.nodes[x].high
		}
		return x, x
	}
	f0, f1 := cof(f)
	g0, g1 := cof(g)
	h0, h1 := cof(h)
	r := m.mk(top, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.cachePut(key, r)
	return r
}

// Cube represents a set of variables for quantification, as a sorted list.
type Cube struct {
	vars []Var
}

// NewCube returns a Cube over the given variables (deduplicated, sorted by
// current level). A Cube captures the variables' *levels*: reordering the
// Manager invalidates previously built cubes — rebuild them after Reorder.
func (m *Manager) NewCube(vars ...Var) Cube {
	sorted := make([]Var, 0, len(vars))
	for _, v := range vars {
		sorted = append(sorted, m.varToLevel(v))
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:0]
	var prev Var = -1
	for _, v := range sorted {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return Cube{vars: out}
}

// Vars returns the cube's variables in ascending order.
func (c Cube) Vars() []Var { return c.vars }

// cubeRef builds the product BDD of the cube, used as cache identity.
func (m *Manager) cubeRef(c Cube) Ref {
	r := True
	for i := len(c.vars) - 1; i >= 0; i-- {
		r = m.mk(c.vars[i], False, r)
	}
	return r
}

// contains reports whether the cube contains v (binary search).
func (c Cube) contains(v Var) bool {
	lo, hi := 0, len(c.vars)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.vars[mid] == v:
			return true
		case c.vars[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Exists returns ∃vars. f.
func (m *Manager) Exists(f Ref, cube Cube) Ref {
	if len(cube.vars) == 0 {
		return f
	}
	return m.quant(f, cube, m.cubeRef(cube), OpOr, kindExists)
}

// ForAll returns ∀vars. f.
func (m *Manager) ForAll(f Ref, cube Cube) Ref {
	if len(cube.vars) == 0 {
		return f
	}
	return m.quant(f, cube, m.cubeRef(cube), OpAnd, kindForAll)
}

func (m *Manager) quant(f Ref, cube Cube, cubeID Ref, combine Op, kind uint8) Ref {
	if IsTerminal(f) {
		return f
	}
	lv := m.level(f)
	if lv > cube.vars[len(cube.vars)-1] {
		return f // below all quantified variables
	}
	key := cacheKey{kind: kind, a: f, b: cubeID}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	low := m.quant(n.low, cube, cubeID, combine, kind)
	var r Ref
	if cube.contains(lv) {
		// Short-circuit: ∨ with True / ∧ with False.
		if (combine == OpOr && low == True) || (combine == OpAnd && low == False) {
			r = low
		} else {
			high := m.quant(n.high, cube, cubeID, combine, kind)
			r = m.Apply(combine, low, high)
		}
	} else {
		high := m.quant(n.high, cube, cubeID, combine, kind)
		r = m.mk(lv, low, high)
	}
	m.cachePut(key, r)
	return r
}

// AndExists computes ∃cube. (f ∧ g) in one pass (the relational product),
// avoiding the intermediate conjunction.
func (m *Manager) AndExists(f, g Ref, cube Cube) Ref {
	return m.andExists(f, g, cube, m.cubeRef(cube))
}

func (m *Manager) andExists(f, g Ref, cube Cube, cubeID Ref) Ref {
	switch {
	case f == False || g == False:
		return False
	case f == True && g == True:
		return True
	case f == True:
		return m.Exists(g, cube)
	case g == True:
		return m.Exists(f, cube)
	case f == g:
		return m.Exists(f, cube)
	}
	if f > g {
		f, g = g, f
	}
	key := cacheKey{kind: kindAndExists, a: f, b: g, c: cubeID}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	lf, lg := m.level(f), m.level(g)
	top := lf
	if lg < top {
		top = lg
	}
	f0, f1 := f, f
	if lf == top {
		f0, f1 = m.nodes[f].low, m.nodes[f].high
	}
	g0, g1 := g, g
	if lg == top {
		g0, g1 = m.nodes[g].low, m.nodes[g].high
	}
	var r Ref
	if cube.contains(top) {
		low := m.andExists(f0, g0, cube, cubeID)
		if low == True {
			r = True
		} else {
			high := m.andExists(f1, g1, cube, cubeID)
			r = m.Or(low, high)
		}
	} else {
		low := m.andExists(f0, g0, cube, cubeID)
		high := m.andExists(f1, g1, cube, cubeID)
		r = m.mk(top, low, high)
	}
	m.cachePut(key, r)
	return r
}

// Restrict fixes variables to constants: assignment maps Var to value. It is
// the simultaneous cofactor of f.
func (m *Manager) Restrict(f Ref, assignment map[Var]bool) Ref {
	if len(assignment) == 0 {
		return f
	}
	// Re-key the assignment by level and build a literal cube as cache
	// identity.
	byLevel := make(map[Var]bool, len(assignment))
	vars := make([]Var, 0, len(assignment))
	for v, val := range assignment {
		byLevel[m.varToLevel(v)] = val
		//syreplint:ignore maporder NewCube below sorts and dedups its arguments
		vars = append(vars, v)
	}
	cube := m.NewCube(vars...)
	id := True
	for i := len(cube.vars) - 1; i >= 0; i-- {
		l := cube.vars[i]
		if byLevel[l] {
			id = m.mk(l, False, id)
		} else {
			id = m.mk(l, id, False)
		}
	}
	return m.restrict(f, byLevel, id, cube)
}

func (m *Manager) restrict(f Ref, assignment map[Var]bool, id Ref, cube Cube) Ref {
	if IsTerminal(f) {
		return f
	}
	lv := m.level(f)
	if lv > cube.vars[len(cube.vars)-1] {
		return f
	}
	key := cacheKey{kind: kindRestrict, a: f, b: id}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	var r Ref
	if val, ok := assignment[lv]; ok {
		child := n.low
		if val {
			child = n.high
		}
		r = m.restrict(child, assignment, id, cube)
	} else {
		r = m.mk(lv, m.restrict(n.low, assignment, id, cube),
			m.restrict(n.high, assignment, id, cube))
	}
	m.cachePut(key, r)
	return r
}

// Compose substitutes function g for variable v in f: f[v := g].
func (m *Manager) Compose(f Ref, v Var, g Ref) Ref {
	return m.compose(f, m.varToLevel(v), g)
}

func (m *Manager) compose(f Ref, lv Var, g Ref) Ref {
	if IsTerminal(f) || m.level(f) > lv {
		return f
	}
	key := cacheKey{kind: kindCompose, a: f, b: g, c: Ref(lv)}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	var r Ref
	if n.level == lv {
		r = m.Ite(g, n.high, n.low)
	} else {
		low := m.compose(n.low, lv, g)
		high := m.compose(n.high, lv, g)
		r = m.Ite(m.mk(n.level, False, True), high, low)
	}
	m.cachePut(key, r)
	return r
}

// Replacement is a prepared variable renaming for Replace. Renamings must be
// order-preserving: if v < w are both renamed then their images must satisfy
// image(v) < image(w), and images must not collide with variables in the
// support of the argument that are not themselves renamed in a way that
// would reorder levels. The encode package interleaves current/next state
// variables so that its renamings are always order-preserving.
type Replacement struct {
	to []Var // indexed by Var; identity where not renamed
	id Ref   // cache identity
}

// NewReplacement prepares the renaming pairs from→to. Like Cubes,
// Replacements capture current levels and must be rebuilt after Reorder.
func (m *Manager) NewReplacement(pairs map[Var]Var) Replacement {
	to := make([]Var, m.NumVars())
	for i := range to {
		to[i] = m.varToLevel(Var(i))
	}
	// The cache identity is the product of from-literals paired with
	// to-literals; a simple canonical encoding suffices.
	id := True
	cube := make([]Var, 0, len(pairs)*2)
	for f, t := range pairs {
		to[m.varToLevel(f)] = m.varToLevel(t)
		//syreplint:ignore maporder NewCube below sorts and dedups its arguments
		cube = append(cube, f, t)
	}
	c := m.NewCube(cube...)
	for i := len(c.vars) - 1; i >= 0; i-- {
		id = m.mk(c.vars[i], False, id)
	}
	return Replacement{to: to, id: id}
}

// Replace renames variables in f according to r. It panics when the renaming
// is not order-preserving on f's support (a programming error in the
// caller's variable layout).
func (m *Manager) Replace(f Ref, r Replacement) Ref {
	return m.replace(f, r)
}

func (m *Manager) replace(f Ref, rep Replacement) Ref {
	if IsTerminal(f) {
		return f
	}
	key := cacheKey{kind: kindReplace, a: f, b: rep.id}
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	low := m.replace(n.low, rep)
	high := m.replace(n.high, rep)
	nv := rep.to[n.level]
	if !IsTerminal(low) && m.level(low) <= nv || !IsTerminal(high) && m.level(high) <= nv {
		panic(fmt.Sprintf("bdd: Replace is not order-preserving at variable %s -> %s",
			m.levelName(n.level), m.levelName(nv)))
	}
	r := m.mk(nv, low, high)
	m.cachePut(key, r)
	return r
}
