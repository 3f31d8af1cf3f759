// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in pure Go, following Bryant's classic algorithms. It is the symbolic
// engine behind SyRep's routing synthesis and repair (Section III-A of the
// paper), playing the role CUDD plays for the authors' prototype.
//
// A Manager owns a hash-consed node store with a fixed variable order (the
// order in which variables are created). All operations return canonical
// nodes: two Refs are equal iff they denote the same Boolean function.
//
// Memory management: callers protect BDDs they want to survive garbage
// collection with Ref/Deref; GC sweeps everything unreachable from protected
// nodes. Operations that would grow the store past the configured node limit
// abort; wrap top-level symbolic computations in Protect to receive that
// condition as an error instead of a panic.
package bdd

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"syrep/internal/obs"
)

// Ref references a BDD node inside its Manager. The constants False and True
// are the terminal nodes. Refs are only meaningful with the Manager that
// produced them.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// Var identifies a BDD variable (also its level in the fixed order).
type Var int32

const terminalLevel = Var(math.MaxInt32)

// ErrNodeLimit is reported by Protect when a symbolic computation exceeds
// the Manager's node limit even after garbage collection.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

type node struct {
	level     Var
	low, high Ref
	// next links the node into its unique-table bucket; 0 (False, never
	// chained) ends a chain.
	next Ref
}

// freeLevel marks a recycled slot: GC stamps it on every node it frees, so
// walks over the arena skip free slots without consulting the free list.
const freeLevel = Var(-1)

// minTable is the initial size of the node arena, the unique table and the
// operation cache.
const minTable = 1 << 10

// Manager owns BDD nodes and caches.
type Manager struct {
	// nodes is the arena: Refs index it, and slots on free are recycled.
	nodes []node
	free  []Ref
	// buckets heads the unique table's chains, which are threaded through
	// the arena by node.next. Its length is a power of two, doubled
	// whenever the live nodes outnumber it; shift selects a bucket from the
	// top bits of a 64-bit hash.
	buckets  []Ref
	shift    uint
	varNames []string

	// cache is the lossy, direct-mapped operation cache (see ops.go);
	// cacheFilled reports that some slot may be occupied.
	cache       []cacheEntry
	cacheShift  uint
	cacheFilled bool
	protected   map[Ref]int

	nodeLimit  int // hard cap on live nodes (0 = unlimited)
	overflowed bool

	// var2level / level2var implement dynamic variable reordering (see
	// reorder.go); empty slices mean the identity permutation.
	var2level []Var
	level2var []Var

	// Observability taps (see Observe). Each is nil when no observer is
	// attached, and obs.Counter/Gauge methods are no-ops on nil receivers,
	// so the unobserved hot path costs one predictable nil check per op.
	obsMk, obsAlloc, obsCacheHit, obsCacheMiss *obs.Counter
	obsGC, obsFreed, obsReorders               *obs.Counter
	obsPeak                                    *obs.Gauge
}

// Observe attaches the obs counter bundle c to the Manager so hot-path
// events (mk calls, node allocations, apply-cache hits/misses, GC runs,
// freed nodes, reorder passes, peak live nodes) stream into it atomically.
// Passing nil detaches. The taps are the Manager's only counters; one
// bundle may be shared by many Managers, which aggregate into it.
func (m *Manager) Observe(c *obs.BDDCounters) {
	if c == nil {
		m.obsMk, m.obsAlloc, m.obsCacheHit, m.obsCacheMiss = nil, nil, nil, nil
		m.obsGC, m.obsFreed, m.obsReorders = nil, nil, nil
		m.obsPeak = nil
		return
	}
	m.obsMk, m.obsAlloc = c.MkCalls, c.NodesAllocated
	m.obsCacheHit, m.obsCacheMiss = c.CacheHits, c.CacheMisses
	m.obsGC, m.obsFreed, m.obsReorders = c.GCRuns, c.NodesFreed, c.Reorders
	m.obsPeak = c.PeakNodes
}

// Config tunes a Manager.
type Config struct {
	// NodeLimit caps live BDD nodes; 0 means unlimited. When the limit is
	// hit, the Manager garbage-collects; if still over, the current
	// operation aborts (see Protect).
	NodeLimit int
}

// New returns a Manager with default configuration.
func New() *Manager { return NewWithConfig(Config{}) }

// NewWithConfig returns a Manager tuned by cfg.
func NewWithConfig(cfg Config) *Manager {
	m := &Manager{
		nodes:      make([]node, 2, minTable),
		buckets:    make([]Ref, minTable),
		shift:      tableShift(minTable),
		cache:      make([]cacheEntry, cacheSize(minTable)),
		cacheShift: tableShift(cacheSize(minTable)),
		protected:  make(map[Ref]int),
		nodeLimit:  cfg.NodeLimit,
	}
	m.nodes[False] = node{level: terminalLevel, low: False, high: False}
	m.nodes[True] = node{level: terminalLevel, low: True, high: True}
	return m
}

// tableShift returns the right shift that maps a 64-bit hash onto a table
// of size slots (a power of two).
func tableShift(size int) uint { return uint(64 - bits.TrailingZeros(uint(size))) }

// NewVar declares the next variable in the order and returns it.
func (m *Manager) NewVar(name string) Var {
	v := Var(len(m.varNames))
	if name == "" {
		name = fmt.Sprintf("x%d", v)
	}
	m.varNames = append(m.varNames, name)
	return v
}

// NewVars declares n consecutive variables with a common prefix.
func (m *Manager) NewVars(prefix string, n int) []Var {
	out := make([]Var, n)
	for i := range out {
		out[i] = m.NewVar(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.varNames) }

// VarName returns the display name of v.
func (m *Manager) VarName(v Var) string {
	if int(v) < len(m.varNames) {
		return m.varNames[v]
	}
	return fmt.Sprintf("x%d", v)
}

// levelName returns the display name of the variable at a level.
func (m *Manager) levelName(l Var) string { return m.VarName(m.levelToVar(l)) }

// NumNodes returns the number of live nodes, terminals included.
func (m *Manager) NumNodes() int { return len(m.nodes) - len(m.free) }

// Level returns the variable of the node (terminalLevel for constants).
func (m *Manager) level(f Ref) Var { return m.nodes[f].level }

// IsTerminal reports whether f is True or False.
func IsTerminal(f Ref) bool { return f == True || f == False }

// VarOf returns the top variable of f; calling it on a terminal is a
// programming error.
func (m *Manager) VarOf(f Ref) Var {
	if IsTerminal(f) {
		panic("bdd: VarOf on terminal")
	}
	return m.levelToVar(m.nodes[f].level)
}

// Low returns the low (else) child of f.
func (m *Manager) Low(f Ref) Ref { return m.nodes[f].low }

// High returns the high (then) child of f.
func (m *Manager) High(f Ref) Ref { return m.nodes[f].high }

// VarRef returns the BDD for the single variable v.
func (m *Manager) VarRef(v Var) Ref { return m.mk(m.varToLevel(v), False, True) }

// NVarRef returns the BDD for the negation of variable v.
func (m *Manager) NVarRef(v Var) Ref { return m.mk(m.varToLevel(v), True, False) }

// Lit returns the literal v or ¬v depending on positive.
func (m *Manager) Lit(v Var, positive bool) Ref {
	if positive {
		return m.VarRef(v)
	}
	return m.NVarRef(v)
}

// mk returns the canonical node (level, low, high), applying the reduction
// rules (low == high elimination, hash-consing).
func (m *Manager) mk(level Var, low, high Ref) Ref {
	m.obsMk.Inc()
	if low == high {
		return low
	}
	for r := m.buckets[m.hash(level, low, high)]; r != 0; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.level == level && n.low == low && n.high == high {
			return r
		}
	}
	if m.nodeLimit > 0 && m.NumNodes() >= m.nodeLimit {
		m.overflowed = true
		panic(bddOverflow{})
	}
	var r Ref
	if n := len(m.free); n > 0 {
		r = m.free[n-1]
		m.free = m.free[:n-1]
		m.nodes[r] = node{level: level, low: low, high: high}
	} else {
		r = Ref(len(m.nodes))
		m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	}
	m.link(r)
	m.obsAlloc.Inc()
	m.obsPeak.SetMax(int64(m.NumNodes()))
	return r
}

// hash selects the unique-table bucket of (level, low, high): a
// multiplicative hash read from its top bits.
func (m *Manager) hash(level Var, low, high Ref) uint64 {
	h := (uint64(uint32(low))<<32 | uint64(uint32(high))) * 0x9E3779B97F4A7C15
	h ^= uint64(uint32(level)) * 0xC2B2AE3D27D4EB4F
	return h >> m.shift
}

// link pushes node r onto the head of its bucket's chain, first doubling
// the table when the live nodes outnumber the buckets.
func (m *Manager) link(r Ref) {
	if m.NumNodes() > len(m.buckets) {
		m.grow()
	}
	m.chain(r)
}

// chain pushes node r onto the head of its bucket's chain.
func (m *Manager) chain(r Ref) {
	n := &m.nodes[r]
	i := m.hash(n.level, n.low, n.high)
	n.next = m.buckets[i]
	m.buckets[i] = r
}

// unlink removes node r from its bucket's chain.
func (m *Manager) unlink(r Ref) {
	n := &m.nodes[r]
	p := &m.buckets[m.hash(n.level, n.low, n.high)]
	for *p != r {
		p = &m.nodes[*p].next
	}
	*p = n.next
}

// grow doubles the unique table, rehashing by walking the old chains, and
// lets the operation cache follow it (see cacheSize). Only chained nodes
// move: a node swapLevels has unlinked for rewriting stays off every chain
// until the swap links it again, so a doubling in the middle of a swap
// cannot chain a node twice.
func (m *Manager) grow() {
	old := m.buckets
	m.buckets = make([]Ref, 2*len(old))
	m.shift--
	for _, r := range old {
		for r != 0 {
			next := m.nodes[r].next
			m.chain(r)
			r = next
		}
	}
	if size := cacheSize(len(m.buckets)); size > len(m.cache) {
		m.resizeCache(size)
	}
}

// bddOverflow is the panic payload for node-limit aborts; Protect converts
// it to ErrNodeLimit.
type bddOverflow struct{}

// Protect runs fn, converting a node-limit abort into ErrNodeLimit. All
// top-level symbolic computations that may blow up should run under
// Protect.
func (m *Manager) Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bddOverflow); ok {
				err = ErrNodeLimit
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// Overflowed reports whether the Manager has ever hit its node limit.
func (m *Manager) Overflowed() bool { return m.overflowed }

// IsOverflow reports whether a recovered panic value is the engine's
// internal node-limit abort. Supervisors that recover panics at a package
// boundary use it to map an overflow that escaped a Protect region back to
// ErrNodeLimit instead of treating it as a bug.
func IsOverflow(v any) bool {
	_, ok := v.(bddOverflow)
	return ok
}

// NumProtected returns the number of distinct refs currently protected from
// garbage collection. The encode engine's steady state keeps at most two
// protected refs between scenarios; fault-injection tests assert the count
// returns to that level on every exit path.
func (m *Manager) NumProtected() int { return len(m.protected) }

// Ref protects f (and its descendants) from garbage collection. Calls nest.
func (m *Manager) Ref(f Ref) Ref {
	m.protected[f]++
	return f
}

// Deref removes one protection from f.
func (m *Manager) Deref(f Ref) {
	if c := m.protected[f]; c > 1 {
		m.protected[f] = c - 1
	} else {
		delete(m.protected, f)
	}
}
