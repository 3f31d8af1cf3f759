package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"syrep/internal/obs"
)

// processStart is taken at package initialisation, as close to process start
// as Go code runs; the first set-up is timed from it.
var processStart = time.Now()

// config is one workload run.
type config struct {
	workload string
	seed     int64
	// seconds sizes the timed phase: a closed loop runs the number of whole
	// passes that take about this long on the reference host, an open loop
	// schedules rate × seconds ops. Both commits of a comparison therefore
	// run the same ops.
	seconds float64
	trace   bool
	// setups is the least number of set-ups; set-up repeats while less
	// than setupBudget of it has run. setup_s is their median.
	setups      int
	setupBudget time.Duration
	// limit caps a workload's instances, warm-up and ops for the smoke
	// test; 0 means no cap.
	limit int
}

// workload is one benchmark workload. A workload value lives for the whole
// run: setup may be called several times (each call tears down the previous
// system), and check sees every table produced since the first setup.
type workload interface {
	// setup builds the system under test from the seeded inputs — observed
	// by o and traced by tr when they are non-nil — and runs the untimed
	// warm-up pass.
	setup(o *obs.Observer, tr *tracer) error
	// run executes the timed ops of one phase.
	run(ph *phase) error
	// check is the correctness gate, run outside every timed window. It
	// returns the number of ops whose output failed a check, with a line
	// per problem.
	check() (bad int, problems []string)
	// close tears the system down and waits for everything it started.
	close()
}

// spec registers a workload.
type spec struct {
	name  string
	open  bool // open loop: latency runs from the scheduled time
	build func(cfg config) workload
}

var specs = []spec{
	{name: "synth-bdd", build: newSynthBDD},
	{name: "synth-verify", build: newSynthVerify},
	{name: "alldests", build: newAllDests},
	{name: "churn", open: true, build: newChurn},
	{name: "serve", open: true, build: newServe},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run, in print order.
// fail_ratio is printed with them but is not a bounded metric: it reads 0 on
// a healthy run, and the result line carries it as attempted/failed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in print order. Every workload
// emits all of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bdd.mk_calls_per_op", "calls/op"},
	{"bdd.nodes_allocated_per_op", "nodes/op"},
	{"bdd.cache_hit_ratio", "ratio"},
	{"bdd.gc_runs_per_op", "runs/op"},
	{"bdd.nodes_freed_per_op", "nodes/op"},
	{"bdd.reorders_per_op", "runs/op"},
	{"bdd.peak_nodes", "nodes"},
	{"repair.busy_ms_per_op", "ms/op"},
	{"repair.iterations_per_op", "count/op"},
	{"repair.holes_per_op", "holes/op"},
	{"repair.used_ratio", "ratio"},
	{"verify.busy_ms_per_op", "ms/op"},
	{"verify.scenarios_per_op", "count/op"},
	{"verify.traces_per_op", "count/op"},
	{"verify.failing_per_op", "count/op"},
	{"reduce.busy_ms_per_op", "ms/op"},
	{"reduce.nodes_removed_per_op", "nodes/op"},
	{"heuristic.busy_ms_per_op", "ms/op"},
	{"heuristic.resilient_ratio", "ratio"},
	{"expand.busy_ms_per_op", "ms/op"},
	{"resilience.total_ms_per_op", "ms/op"},
	{"resilience.self_ms_per_op", "ms/op"},
	{"resilience.solve_attempts_per_op", "count/op"},
	{"resilience.degradations_per_op", "count/op"},
	{"batch.dest_ms_p50", "ms"},
	{"batch.worker_busy_ratio", "ratio"},
	{"bdd.pool_reuse_ratio", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.warm_hit_ratio", "ratio"},
	{"cache.dedup_ratio", "ratio"},
	{"cache.evictions_per_op", "count/op"},
	{"server.handler_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.resp_kb_per_op", "KB/op"},
	{"server.retries_per_op", "count/op"},
	{"server.rejected_ratio", "ratio"},
	{"server.degraded_ratio", "ratio"},
	{"server.queue_len_max", "count"},
	{"controller.repairs_per_event", "count/op"},
	{"controller.warm_ratio", "ratio"},
	{"controller.stale_per_event", "count/op"},
	{"controller.coalesced_ratio", "ratio"},
	{"controller.noop_ratio", "ratio"},
	{"controller.repair_ms_per_event", "ms/op"},
	{"controller.degraded_ratio", "ratio"},
	{"journal.writes_per_event", "count/op"},
	{"journal.syncs_per_event", "count/op"},
	{"journal.sync_ms_per_event", "ms/op"},
	{"journal.bytes_per_event", "B/op"},
	{"sink.pushes_per_event", "count/op"},
	{"sink.push_lag_ms_p50", "ms"},
	{"go.gc_cycles_per_op", "count/op"},
	{"go.gc_pause_ms_per_op", "ms/op"},
	{"go.heap_peak_mb", "MB"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.host_ref_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// Run-validity limits for the open-loop generators.
const (
	maxGenLagMs = 5.0
	maxBacklog  = 3 * time.Second
)

// phase records one timed phase: per-op latency and outcome, the process
// resources it used, and — when traced — the observer counters and
// workload-specific layer numbers.
type phase struct {
	tr *tracer // nil when untraced
	// o is an open loop's run-long observer, nil otherwise; the phase
	// absorbs what it counted between begin and finish.
	o    *obs.Observer
	base obs.Snapshot

	mu       sync.Mutex
	lat      []float64 // ms, by op index
	bad      []bool
	done     int
	allDone  chan struct{}
	lastDone time.Time
	lags     []float64 // open-loop generator lateness per send, ms
	counters map[string]int64
	gauges   map[string]int64
	layer    map[string]float64

	// Process resources used over the phase.
	start   time.Time
	cpu     time.Duration
	alloc   uint64 // bytes allocated
	gcs     uint32
	gcPause time.Duration
	heap    *heapSampler
	heapMB  float64
	rssMB   float64 // the process's peak resident set when the phase ended
	backlog bool    // an op completed later than maxBacklog after the last send
}

func newPhase(tr *tracer) *phase {
	return &phase{
		tr:       tr,
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		layer:    map[string]float64{},
	}
}

// begin sizes the phase to n ops and starts the clocks.
func (ph *phase) begin(n int) {
	ph.lat = make([]float64, n)
	ph.bad = make([]bool, n)
	ph.allDone = make(chan struct{})
	if n == 0 {
		close(ph.allDone)
	}
	if ph.tr != nil {
		ph.tr.reset()
		ph.heap = startHeapSampler()
	}
	if ph.o != nil {
		ph.base = ph.o.Snapshot()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.alloc, ph.gcs, ph.gcPause = m.TotalAlloc, m.NumGC, time.Duration(m.PauseTotalNs)
	ph.cpu, _ = rusage()
	ph.start = time.Now()
}

// finish stops the clocks.
func (ph *phase) finish() {
	cpu, rss := rusage()
	ph.cpu, ph.rssMB = cpu-ph.cpu, rss
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.alloc = m.TotalAlloc - ph.alloc
	ph.gcs = m.NumGC - ph.gcs
	ph.gcPause = time.Duration(m.PauseTotalNs) - ph.gcPause
	if ph.heap != nil {
		ph.heapMB = ph.heap.finish()
	}
	if ph.o != nil {
		snap := ph.o.Snapshot()
		for k, v := range snap.Counters {
			ph.counters[k] = v - ph.base.Counters[k]
		}
		ph.gauges = snap.Gauges
	}
}

// opDone records op i, due at due and completed at end.
func (ph *phase) opDone(i int, due, end time.Time, failed bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.lat[i] = float64(end.Sub(due).Nanoseconds()) / 1e6
	ph.bad[i] = failed
	if end.After(ph.lastDone) {
		ph.lastDone = end
	}
	ph.done++
	if ph.done == len(ph.lat) {
		close(ph.allDone)
	}
}

// await waits until every op completed, marking the run invalid when that
// takes longer than maxBacklog after the last send. It gives up after
// giveUp, so a wedged system cannot hang the benchmark.
func (ph *phase) await(lastSend time.Time, giveUp time.Duration) error {
	t := time.NewTimer(giveUp)
	defer t.Stop()
	select {
	case <-ph.allDone:
	case <-t.C:
		ph.mu.Lock()
		defer ph.mu.Unlock()
		return fmt.Errorf("%d of %d ops still open %v after the last send", len(ph.lat)-ph.done, len(ph.lat), giveUp)
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.backlog = ph.lastDone.Sub(lastSend) > maxBacklog
	return nil
}

// absorb folds a closed loop's per-op observer into the phase totals
// (gauges keep their maximum).
func (ph *phase) absorb(o *obs.Observer) {
	if o == nil {
		return
	}
	snap := o.Snapshot()
	ph.mu.Lock()
	defer ph.mu.Unlock()
	for k, v := range snap.Counters {
		ph.counters[k] += v
	}
	for k, v := range snap.Gauges {
		ph.gauges[k] = max(ph.gauges[k], v)
	}
}

// setLayer records a per-layer metric only the workload can compute.
func (ph *phase) setLayer(name string, v float64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.layer[name] = v
}

func (ph *phase) ops() int { return len(ph.lat) }

func (ph *phase) failed() int {
	n := 0
	for _, b := range ph.bad {
		if b {
			n++
		}
	}
	return n
}

// invalid explains why the phase's numbers cannot be trusted, "" when they
// can.
func (ph *phase) invalid() string {
	var why []string
	if lag := percentile(ph.lags, 0.99); lag > maxGenLagMs {
		why = append(why, fmt.Sprintf("generator lag p99 %.2fms > %.0fms", lag, maxGenLagMs))
	}
	if ph.backlog {
		why = append(why, fmt.Sprintf("backlog: ops completed more than %v after the last send", maxBacklog))
	}
	return strings.Join(why, "; ")
}

// endToEndValues computes the end-to-end metrics of an untraced phase.
func (ph *phase) endToEndValues(setupS float64) map[string]float64 {
	n := float64(ph.ops())
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       ratio(n, ph.lastDone.Sub(ph.start).Seconds()),
		"p50_ms":          median(ph.lat),
		"tail_ms":         tail(ph.lat),
		"fail_ratio":      ratio(float64(ph.failed()), n),
		"cpu_ms_per_op":   ratio(float64(ph.cpu.Nanoseconds())/1e6, n),
		"alloc_mb_per_op": ratio(float64(ph.alloc)/1e6, n),
		"peak_rss_mb":     ph.rssMB,
	}
}

// Stage span names of the program's pipeline (resilience.Stage values).
var (
	repairStages = []string{"repair", "repair-reduced"}
	verifyStages = []string{"verify", "verify-reduced", "final-verify"}
)

// layerValues computes the per-layer metrics of a traced phase from its
// observer counters, its spans and the workload's own numbers.
func (ph *phase) layerValues(spans []span) map[string]float64 {
	n := float64(ph.ops())
	per := func(v float64) float64 { return ratio(v, n) }
	c := func(name string) float64 { return float64(ph.counters[name]) }

	busy := map[string]int64{}
	for _, s := range spans {
		busy[s.Name] += s.dur()
	}
	busyMs := func(names ...string) float64 {
		var ns int64
		for _, name := range names {
			ns += busy[name]
		}
		return float64(ns) / 1e6
	}

	// One supervisor run is one "total" span; its stages are its
	// descendants.
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	var runs, repaired, heurRuns, heurResilient, totalSelf float64
	for _, s := range spans {
		if s.Name != obs.SpanTotal {
			continue
		}
		runs++
		totalSelf += float64(s.Self)
		names := map[string]bool{}
		stack := append([]int(nil), kids[s.ID]...)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			names[spans[i].Name] = true
			stack = append(stack, kids[spans[i].ID]...)
		}
		usedRepair := false
		for _, name := range repairStages {
			usedRepair = usedRepair || names[name]
		}
		if usedRepair {
			repaired++
		}
		if names["heuristic"] {
			heurRuns++
			if !usedRepair {
				heurResilient++
			}
		}
	}

	v := map[string]float64{
		"bdd.mk_calls_per_op":            per(c(obs.BDDMkCalls)),
		"bdd.nodes_allocated_per_op":     per(c(obs.BDDNodesAllocated)),
		"bdd.cache_hit_ratio":            ratio(c(obs.BDDCacheHits), c(obs.BDDCacheHits)+c(obs.BDDCacheMisses)),
		"bdd.gc_runs_per_op":             per(c(obs.BDDGCRuns)),
		"bdd.nodes_freed_per_op":         per(c(obs.BDDNodesFreed)),
		"bdd.reorders_per_op":            per(c(obs.BDDReorders)),
		"bdd.peak_nodes":                 float64(ph.gauges[obs.BDDPeakNodes]),
		"repair.busy_ms_per_op":          per(busyMs(repairStages...)),
		"repair.iterations_per_op":       per(c(obs.RepairIterations)),
		"repair.holes_per_op":            per(c(obs.RepairHolesPunched)),
		"repair.used_ratio":              ratio(repaired, runs),
		"verify.busy_ms_per_op":          per(busyMs(verifyStages...)),
		"verify.scenarios_per_op":        per(c(obs.VerifyScenarios)),
		"verify.traces_per_op":           per(c(obs.VerifyTraces)),
		"verify.failing_per_op":          per(c(obs.VerifyFailing)),
		"reduce.busy_ms_per_op":          per(busyMs("reduce")),
		"heuristic.busy_ms_per_op":       per(busyMs("heuristic")),
		"heuristic.resilient_ratio":      ratio(heurResilient, heurRuns),
		"expand.busy_ms_per_op":          per(busyMs("expand")),
		"resilience.total_ms_per_op":     per(busyMs(obs.SpanTotal)),
		"resilience.self_ms_per_op":      per(totalSelf / 1e6),
		"go.gc_cycles_per_op":            per(float64(ph.gcs)),
		"go.gc_pause_ms_per_op":          per(float64(ph.gcPause.Nanoseconds()) / 1e6),
		"go.heap_peak_mb":                ph.heapMB,
		"bench.gen_lag_ms_p99":           percentile(ph.lags, 0.99),
		"controller.repair_ms_per_event": per(busyMs("ctl-repair")),
	}
	for k, x := range ph.layer {
		v[k] = x
	}
	return v
}

// passCount sizes a closed loop: the number of whole passes over its
// instance list that take about seconds on the reference host, at least one.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}
