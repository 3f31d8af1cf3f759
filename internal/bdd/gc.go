package bdd

// Garbage collection: mark from protected roots, sweep everything else.
// Refs of live nodes are stable across GC; freed slots are recycled by mk.
// The operation cache is cleared because it may reference freed nodes.
//
// GC must only run between top-level operations: intermediate results held
// on the Go stack during a recursion are not protected. The Manager never
// garbage-collects implicitly for that reason.

// GC frees every node unreachable from protected roots and returns the
// number of freed nodes.
func (m *Manager) GC() int {
	m.obsGC.Inc()
	marked := make([]bool, len(m.nodes))
	marked[False] = true
	marked[True] = true
	// Mark with an explicit stack: a chain-shaped BDD is as deep as it has
	// levels, and recursion would overflow the goroutine stack long before
	// the node table fills.
	stack := make([]Ref, 0, 128)
	push := func(f Ref) {
		if !marked[f] {
			marked[f] = true
			stack = append(stack, f)
		}
	}
	for f := range m.protected {
		push(f)
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := m.nodes[f]
		push(n.low)
		push(n.high)
	}

	// Sweep the arena in Ref order and rebuild the chains from the
	// survivors. The dead slots join the free list in ascending order, so mk
	// recycles Refs in the same order every run.
	freedBefore := len(m.free)
	clear(m.buckets)
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		n := &m.nodes[r]
		switch {
		case n.level == freeLevel:
		case marked[r]:
			m.chain(r)
		default:
			n.level = freeLevel
			m.free = append(m.free, r)
		}
	}
	m.clearCache()
	freed := len(m.free) - freedBefore
	m.obsFreed.Add(int64(freed))
	return freed
}
