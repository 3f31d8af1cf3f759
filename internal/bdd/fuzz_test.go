package bdd

import "testing"

// The fuzz targets drive the manager with a byte-coded op sequence over a
// small variable set and check the ROBDD canonical-form contract after every
// step: equal Boolean functions have equal Refs, no node is redundant, and
// levels strictly increase toward the terminals. A shadow truth table
// (uint64, one bit per assignment of up to 6 variables) gives an independent
// ground truth that survives GC.

const fuzzVars = 6

// varMask returns the truth table of variable v: bit r is set when
// assignment r (bit i of r = value of variable i) makes v true.
func varMask(v int) uint64 {
	var mask uint64
	for r := 0; r < 1<<fuzzVars; r++ {
		if r>>v&1 == 1 {
			mask |= 1 << r
		}
	}
	return mask
}

const fullMask = ^uint64(0) // 2^fuzzVars = 64 assignments, one bit each

// evalRef walks the BDD for one variable assignment.
func evalRef(m *Manager, f Ref, assign int) bool {
	for !IsTerminal(f) {
		if assign>>int(m.VarOf(f))&1 == 1 {
			f = m.High(f)
		} else {
			f = m.Low(f)
		}
	}
	return f == True
}

// tableOf recomputes f's full truth table from the node structure.
func tableOf(m *Manager, f Ref) uint64 {
	var mask uint64
	for r := 0; r < 1<<fuzzVars; r++ {
		if evalRef(m, f, r) {
			mask |= 1 << r
		}
	}
	return mask
}

// checkStructure asserts the ROBDD structural invariants over every live
// node — strictly increasing levels, no redundant tests — and that the
// unique table mirrors the arena exactly: every live node sits on exactly
// one chain, the one its hash selects; free slots sit on none and are
// exactly the free list; and no two live nodes share (level, low, high), so
// hash-consing cannot have duplicates.
func checkStructure(t *testing.T, m *Manager) {
	t.Helper()
	if n := len(m.buckets); n&(n-1) != 0 || m.NumNodes() > n {
		t.Fatalf("unique table has %d buckets for %d nodes, want a power of two at least as large", n, m.NumNodes())
	}
	onFree := make(map[Ref]bool, len(m.free))
	for _, r := range m.free {
		if onFree[r] || m.nodes[r].level != freeLevel {
			t.Fatalf("free list entry %d is duplicated or not marked free", r)
		}
		onFree[r] = true
	}
	chained := make(map[Ref]bool)
	type key struct {
		level     Var
		low, high Ref
	}
	seen := make(map[key]Ref)
	for b, head := range m.buckets {
		for r := head; r != 0; r = m.nodes[r].next {
			if int(r) < 2 || int(r) >= len(m.nodes) || chained[r] {
				t.Fatalf("bucket %d chains node %d out of range or twice", b, r)
			}
			chained[r] = true
			n := m.nodes[r]
			if n.level == freeLevel {
				t.Fatalf("free slot %d sits on bucket %d's chain", r, b)
			}
			if h := m.hash(n.level, n.low, n.high); h != uint64(b) {
				t.Fatalf("node %d sits in bucket %d, its hash selects %d", r, b, h)
			}
			k := key{n.level, n.low, n.high}
			if dup, ok := seen[k]; ok {
				t.Fatalf("nodes %d and %d are both (%d, %d, %d)", dup, r, n.level, n.low, n.high)
			}
			seen[k] = r
			if n.low == n.high {
				t.Fatalf("redundant node %d: low == high == %d", r, n.low)
			}
			for _, child := range []Ref{n.low, n.high} {
				if !IsTerminal(child) && m.nodes[child].level <= n.level {
					t.Fatalf("node %d at level %d has child %d at level %d (order violated)",
						r, n.level, child, m.nodes[child].level)
				}
			}
		}
	}
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		if m.nodes[r].level == freeLevel {
			if !onFree[r] {
				t.Fatalf("slot %d is marked free but not on the free list", r)
			}
		} else if !chained[r] {
			t.Fatalf("live node %d sits on no chain", r)
		}
	}
}

// shadow pairs a protected Ref with its independently tracked truth table.
type shadow struct {
	ref  Ref
	mask uint64
}

// checkShadows verifies semantics and canonicity of every tracked function.
func checkShadows(t *testing.T, m *Manager, pool []shadow) {
	t.Helper()
	for i, s := range pool {
		if got := tableOf(m, s.ref); got != s.mask {
			t.Fatalf("pool[%d]: BDD computes %064b, shadow says %064b", i, got, s.mask)
		}
		if (s.mask == 0) != (s.ref == False) || (s.mask == fullMask) != (s.ref == True) {
			t.Fatalf("pool[%d]: terminal canonicity violated (mask %064b, ref %d)", i, s.mask, s.ref)
		}
		for j := 0; j < i; j++ {
			if (pool[j].mask == s.mask) != (pool[j].ref == s.ref) {
				t.Fatalf("canonicity violated: pool[%d] and pool[%d] have equal functions %v but equal refs %v",
					j, i, pool[j].mask == s.mask, pool[j].ref == s.ref)
			}
		}
	}
}

// FuzzMk interleaves node creation through the public constructors and
// binary ops, asserting after every step that the result is canonical and
// the node store stays well-formed. GC never runs here; this target isolates
// mk/hash-consing from collection.
func FuzzMk(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 9, 16, 3})
	f.Add([]byte{5, 5, 10, 10, 20, 20, 7, 7})
	f.Add([]byte{31, 17, 23, 4, 0, 12, 29, 6, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, vars := newMgr(t, fuzzVars)
		pool := []shadow{{False, 0}, {True, fullMask}}
		for _, v := range vars {
			pool = append(pool, shadow{m.VarRef(v), varMask(int(v))})
		}
		for _, b := range data {
			if len(pool) > 64 {
				break
			}
			a := pool[int(b)%len(pool)]
			c := pool[int(b/7)%len(pool)]
			var s shadow
			switch b % 5 {
			case 0:
				s = shadow{m.And(a.ref, c.ref), a.mask & c.mask}
			case 1:
				s = shadow{m.Or(a.ref, c.ref), a.mask | c.mask}
			case 2:
				s = shadow{m.Xor(a.ref, c.ref), a.mask ^ c.mask}
			case 3:
				s = shadow{m.Not(a.ref), ^a.mask & fullMask}
			case 4:
				s = shadow{m.Imp(a.ref, c.ref), (^a.mask | c.mask) & fullMask}
			}
			pool = append(pool, s)
			// Rebuilding an equal function must hand back the same Ref.
			if again := m.Or(m.And(s.ref, True), False); again != s.ref {
				t.Fatalf("hash-consing broke: rebuilt %d, got %d", s.ref, again)
			}
		}
		checkStructure(t, m)
		checkShadows(t, m, pool)
	})
}

// FuzzApplyGC interleaves Apply operations with Ref/Deref and GC, checking
// after every collection that protected functions survive with identical
// semantics and that canonicity holds across the GC boundary (freed slots
// recycled by mk must not produce duplicate or corrupted nodes).
func FuzzApplyGC(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 4, 9, 4})
	f.Add([]byte{3, 3, 4, 5, 4, 3, 4, 6, 4})
	f.Add([]byte{12, 25, 4, 17, 4, 8, 30, 4, 2, 4, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, vars := newMgr(t, fuzzVars)
		var pool []shadow
		push := func(ref Ref, mask uint64) {
			m.Ref(ref)
			pool = append(pool, shadow{ref, mask})
		}
		push(m.VarRef(vars[0]), varMask(0))
		for _, b := range data {
			if len(pool) > 48 {
				break
			}
			a := pool[int(b)%len(pool)]
			c := pool[int(b/11)%len(pool)]
			switch b % 7 {
			case 0:
				push(m.And(a.ref, c.ref), a.mask&c.mask)
			case 1:
				push(m.Or(a.ref, c.ref), a.mask|c.mask)
			case 2:
				push(m.Xor(a.ref, c.ref), a.mask^c.mask)
			case 3:
				v := vars[int(b/3)%len(vars)]
				push(m.VarRef(v), varMask(int(v)))
			case 4:
				m.GC()
				checkStructure(t, m)
				checkShadows(t, m, pool)
			case 5:
				if len(pool) > 1 {
					last := pool[len(pool)-1]
					m.Deref(last.ref)
					pool = pool[:len(pool)-1]
				}
			case 6:
				push(m.Not(a.ref), ^a.mask&fullMask)
			}
		}
		m.GC()
		checkStructure(t, m)
		checkShadows(t, m, pool)
	})
}
