package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/routing"
)

// batchWorkers is the all-destinations fan-out width: the host's two CPUs.
const batchWorkers = 2

// allDests is the closed loop over resilience.SynthesizeAll: one op
// synthesizes every destination of one topology at k=1.
type allDests struct {
	cfg    config
	topos  []string
	nets   []*network.Network
	passes int

	// ref pins each (topology, destination) table fingerprint from the first
	// warm-up pass.
	ref    map[string]network.Fingerprint
	tables []batchTable
}

type batchTable struct {
	topo int
	dest string
	r    *routing.Routing
}

func newAllDests(cfg config) workload {
	// Nsfnet and Sprint are left out: one straggler destination each would
	// set every pass's time.
	w := &allDests{cfg: cfg, ref: map[string]network.Fingerprint{}, topos: []string{
		"Aarnet", "Abilene", "Arnes", "Arpanet1970", "BizNet",
		"Cesnet", "Garr", "Geant", "Renater", "Uninett",
	}}
	if cfg.limit > 0 && cfg.limit < len(w.topos) {
		w.topos = w.topos[:cfg.limit]
		w.passes = 1
	} else {
		w.passes = passCount(cfg.seconds, 0.27)
	}
	nets := zoo()
	for _, t := range w.topos {
		w.nets = append(w.nets, nets[t])
	}
	return w
}

func (w *allDests) batch(i int, o *obs.Observer) ([]resilience.DestResult, *resilience.BatchReport, error) {
	return resilience.SynthesizeAll(context.Background(), w.nets[i], 1, resilience.BatchOptions{
		Run:     resilience.Options{Timeout: synthTimeout, Obs: o},
		Workers: batchWorkers,
		Obs:     o,
	})
}

// failed reports whether a batch op fell short: a batch error, or any
// destination without a clean resilient table.
func batchFailed(res []resilience.DestResult, rep *resilience.BatchReport, err error) bool {
	if err != nil || rep == nil || rep.Failed > 0 || rep.Attempted != rep.Dests {
		return true
	}
	for _, d := range res {
		if !d.Resilient || d.Routing == nil {
			return true
		}
	}
	return false
}

func (w *allDests) keep(i int, res []resilience.DestResult) {
	for _, d := range res {
		if d.Routing != nil {
			w.tables = append(w.tables, batchTable{topo: i, dest: d.Name, r: d.Routing})
		}
	}
}

func (w *allDests) setup(*obs.Observer, *tracer) error {
	for i := range w.topos {
		res, rep, err := w.batch(i, nil)
		if batchFailed(res, rep, err) {
			return fmt.Errorf("warm-up %s: batch failed (%v)", w.topos[i], err)
		}
		for _, d := range res {
			key := w.topos[i] + "/" + d.Name
			if _, ok := w.ref[key]; !ok {
				w.ref[key] = d.Routing.Fingerprint()
			}
		}
		w.keep(i, res)
	}
	return nil
}

func (w *allDests) run(ph *phase) error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	ph.begin(w.passes * len(w.topos))
	var destMs []float64
	var busy, wall, gets, reuses, removed, attempts, degradations float64
	op := 0
	for p := 0; p < w.passes; p++ {
		for _, i := range rng.Perm(len(w.topos)) {
			var o *obs.Observer
			if ph.tr != nil {
				o = obs.New(ph.tr)
			}
			start := time.Now()
			span := ph.tr.begin("op:"+w.topos[i], 0, start)
			call := ph.tr.begin("resilience.SynthesizeAll", span, start)
			res, rep, err := w.batch(i, o)
			end := time.Now()
			ph.tr.end(call, end)
			ph.tr.end(span, end)
			ph.opDone(op, start, end, batchFailed(res, rep, err))
			op++
			ph.absorb(o)
			w.keep(i, res)
			wall += end.Sub(start).Seconds() * 1e3
			if rep != nil {
				gets += float64(rep.Pool.Gets)
				reuses += float64(rep.Pool.Reuses)
			}
			for _, d := range res {
				if d.Report == nil {
					continue
				}
				ms := float64(d.Report.Elapsed.Nanoseconds()) / 1e6
				destMs = append(destMs, ms)
				busy += ms
				removed += float64(d.Report.NodesRemoved)
				attempts += float64(d.Report.SolveAttempts)
				degradations += float64(len(d.Report.Degradations))
			}
		}
	}
	ph.finish()
	n := float64(op)
	ph.setLayer("batch.dest_ms_p50", median(destMs))
	ph.setLayer("batch.worker_busy_ratio", ratio(busy, batchWorkers*wall))
	ph.setLayer("bdd.pool_reuse_ratio", ratio(reuses, gets))
	ph.setLayer("reduce.nodes_removed_per_op", ratio(removed, n))
	ph.setLayer("resilience.solve_attempts_per_op", ratio(attempts, n))
	ph.setLayer("resilience.degradations_per_op", ratio(degradations, n))
	return nil
}

func (w *allDests) check() (int, []string) {
	bad := 0
	var problems []string
	verified := map[string]bool{}
	for _, t := range w.tables {
		key := w.topos[t.topo] + "/" + t.dest
		if fp := t.r.Fingerprint(); fp != w.ref[key] {
			bad++
			problems = append(problems, fmt.Sprintf("%s@k1: table %s differs from warm-up %s", key, fp, w.ref[key]))
			continue
		}
		ok, seen := verified[key]
		if !seen {
			ok = resilientTable(t.r, 1)
			verified[key] = ok
		}
		if !ok {
			bad++
			problems = append(problems, fmt.Sprintf("%s@k1: table is not perfectly 1-resilient", key))
		}
	}
	return bad, problems
}

func (w *allDests) close() {}
