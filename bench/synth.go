package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/topozoo"
	"syrep/internal/verify"
)

// synthTimeout bounds every synthesis op, as in the paper's per-instance
// timeouts.
const synthTimeout = 10 * time.Second

// zoo returns the embedded topologies by name.
func zoo() map[string]*network.Network {
	m := map[string]*network.Network{}
	for _, inst := range topozoo.Embedded() {
		m[inst.Name] = inst.Net
	}
	return m
}

// instance is one synthesis input: a topology, a destination and k.
type instance struct {
	topo, dest string
	k          int
	net        *network.Network
	id         network.NodeID
}

func (in instance) String() string { return fmt.Sprintf("%s/%s@k%d", in.topo, in.dest, in.k) }

// instances resolves "Topology/Dest" names at resilience level k.
func instances(k int, names ...string) []instance {
	nets := zoo()
	out := make([]instance, 0, len(names))
	for _, name := range names {
		topo, dest, _ := strings.Cut(name, "/")
		net := nets[topo]
		if net == nil || net.NodeByName(dest) == network.NoNode {
			panic(fmt.Sprintf("bench: no instance %q in the embedded topologies", name))
		}
		id := net.NodeByName(dest)
		out = append(out, instance{topo: topo, dest: dest, k: k, net: net, id: id})
	}
	return out
}

// synthWorkload is the closed loop over cold resilience.Synthesize calls
// shared by synth-bdd and synth-verify: one caller, each pass a seeded
// shuffle of the instance list.
type synthWorkload struct {
	cfg    config
	insts  []instance
	passes int

	// ref holds each instance's table fingerprint from the first warm-up
	// pass; every later table of the instance must match it.
	ref    []network.Fingerprint
	tables []synthTable
}

// synthTable is one produced table awaiting the correctness gate.
type synthTable struct {
	inst int
	r    *routing.Routing
}

// newSynthWorkload sizes the loop from passSeconds, how long one pass over
// insts takes on the reference host.
func newSynthWorkload(cfg config, passSeconds float64, insts []instance) *synthWorkload {
	w := &synthWorkload{cfg: cfg, insts: insts, passes: passCount(cfg.seconds, passSeconds)}
	if cfg.limit > 0 && cfg.limit < len(insts) {
		w.insts, w.passes = insts[:cfg.limit], 1
	}
	w.ref = make([]network.Fingerprint, len(w.insts))
	return w
}

func newSynthBDD(cfg config) workload {
	insts := instances(2,
		"Abilene/Chicago", "Abilene/KansasCity", "Abilene/Denver",
		"Arpanet1970/Harvard", "BizNet/Hub1", "BizNet/Hub3",
		"Garr/Bologna", "Garr/Trieste", "Nsfnet/Pittsburgh")
	insts = append(insts, instances(3, "Arpanet1970/RAND")...)
	return newSynthWorkload(cfg, 2.2, insts)
}

func newSynthVerify(cfg config) workload {
	var names []string
	nets := zoo()
	for _, v := range nets["Arnes"].Nodes() {
		names = append(names, "Arnes/"+nets["Arnes"].NodeName(v))
	}
	for _, v := range nets["Uninett"].Nodes() {
		if n := nets["Uninett"].NodeName(v); n != "Stavanger" && n != "Kristiansand" {
			names = append(names, "Uninett/"+n)
		}
	}
	for _, d := range []string{"UCLA", "SRI", "UCSB", "BBN", "MIT", "CMU"} {
		names = append(names, "Arpanet1970/"+d)
	}
	for _, d := range []string{"NewYork", "Atlanta", "Sunnyvale", "Seattle"} {
		names = append(names, "Abilene/"+d)
	}
	return newSynthWorkload(cfg, 0.19, instances(3, names...))
}

// synth runs one cold synthesis.
func (w *synthWorkload) synth(i int, o *obs.Observer) (*routing.Routing, *resilience.Report, error) {
	in := w.insts[i]
	return resilience.Synthesize(context.Background(), in.net, in.id, in.k,
		resilience.Options{Timeout: synthTimeout, Obs: o})
}

// setup has nothing to build beyond the instance list; the warm-up pass
// synthesizes every instance once and pins its reference table.
func (w *synthWorkload) setup(*obs.Observer, *tracer) error {
	for i := range w.insts {
		r, _, err := w.synth(i, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", w.insts[i], err)
		}
		if w.ref[i] == "" {
			w.ref[i] = r.Fingerprint()
		}
		w.tables = append(w.tables, synthTable{inst: i, r: r})
	}
	return nil
}

func (w *synthWorkload) run(ph *phase) error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	ph.begin(w.passes * len(w.insts))
	var removed, attempts, degradations float64
	op := 0
	for p := 0; p < w.passes; p++ {
		for _, i := range rng.Perm(len(w.insts)) {
			var o *obs.Observer
			if ph.tr != nil {
				o = obs.New(ph.tr)
			}
			start := time.Now()
			span := ph.tr.begin("op:"+w.insts[i].String(), 0, start)
			call := ph.tr.begin("resilience.Synthesize", span, start)
			r, rep, err := w.synth(i, o)
			end := time.Now()
			ph.tr.end(call, end)
			ph.tr.end(span, end)
			ph.opDone(op, start, end, err != nil)
			op++
			ph.absorb(o)
			if rep != nil {
				removed += float64(rep.NodesRemoved)
				attempts += float64(rep.SolveAttempts)
				degradations += float64(len(rep.Degradations))
			}
			if err == nil {
				w.tables = append(w.tables, synthTable{inst: i, r: r})
			}
		}
	}
	ph.finish()
	ph.setLayer("reduce.nodes_removed_per_op", ratio(removed, float64(op)))
	ph.setLayer("resilience.solve_attempts_per_op", ratio(attempts, float64(op)))
	ph.setLayer("resilience.degradations_per_op", ratio(degradations, float64(op)))
	return nil
}

// check verifies every distinct table with the brute-force oracle and holds
// each table to its instance's warm-up fingerprint.
func (w *synthWorkload) check() (int, []string) {
	bad := 0
	var problems []string
	verified := map[int]bool{}
	for _, t := range w.tables {
		in := w.insts[t.inst]
		if fp := t.r.Fingerprint(); fp != w.ref[t.inst] {
			bad++
			problems = append(problems, fmt.Sprintf("%s: table %s differs from warm-up %s", in, fp, w.ref[t.inst]))
			continue
		}
		// Equal fingerprints on one instance mean equal tables: verify once.
		ok, seen := verified[t.inst]
		if !seen {
			ok = resilientTable(t.r, in.k)
			verified[t.inst] = ok
		}
		if !ok {
			bad++
			problems = append(problems, fmt.Sprintf("%s: table is not perfectly %d-resilient", in, in.k))
		}
	}
	return bad, problems
}

func (w *synthWorkload) close() {}

// resilientTable is the correctness oracle: brute-force verification of
// perfect k-resilience, independent of the backend the program used.
func resilientTable(r *routing.Routing, k int) bool {
	rep, err := verify.Check(context.Background(), r, k, verify.Options{StopAtFirst: true})
	return err == nil && rep.Resilient && r.Complete()
}
