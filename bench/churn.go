package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"syrep/internal/cache"
	"syrep/internal/controller"
	"syrep/internal/journal"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/routing"
)

const (
	churnRate  = 100.0 // link events per second
	churnNodes = 10
	churnK     = 1
	// churnWarmLinks is how many links the warm-up fails and restores.
	churnWarmLinks = 3
	// settleWait bounds one closed-loop warm-up event.
	settleWait = 30 * time.Second
)

// churn is the open loop of link events through the repair controller: a
// 10-node ring-with-chords network, every node a destination, k=1, a warm
// cache, a write-ahead journal in a temporary directory, and an in-memory
// southbound sink. The seeded event stream keeps at most one link down: a
// pick while a link is down restores it. One op is one event, timed from its
// scheduled time to its settlement.
type churn struct {
	cfg   config
	base  *network.Network
	links []string
	at    []time.Duration
	seq   []controller.Event // the timed events; At is set when one is sent

	// The running system (rebuilt by every setup).
	dir     string
	jrn     *journal.Journal
	ctl     *controller.Controller
	sink    *controller.MemSink
	cache   *cache.Cache
	stop    context.CancelFunc
	runExit chan error
	io      *ioStats
	push    *pushStats

	mu      sync.Mutex
	waiting map[int64]func(controller.Settlement) // by Event.At
	down    string                                // the link the stream left down, "" for none
	final   []string                              // check: problems found with the final tables
	bad     int
}

func newChurn(cfg config) workload {
	base, err := controller.SimNetwork(churnNodes)
	if err != nil {
		panic(err)
	}
	links := append([]string(nil), base.EdgeKeys()...)
	sort.Strings(links)
	n := int(churnRate * cfg.seconds)
	if cfg.limit > 0 {
		n = cfg.limit
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &churn{cfg: cfg, base: base, links: links, at: schedule(rng, n, churnRate)}
	down := ""
	for i := 0; i < n; i++ {
		if down != "" {
			w.seq = append(w.seq, controller.Event{Link: down, Up: true})
			down = ""
			continue
		}
		down = links[rng.Intn(len(links))]
		w.seq = append(w.seq, controller.Event{Link: down})
	}
	return w
}

// onSettle routes a settlement to whoever waits for its event.
func (w *churn) onSettle(s controller.Settlement) {
	w.mu.Lock()
	fn := w.waiting[s.Event.At.UnixNano()]
	delete(w.waiting, s.Event.At.UnixNano())
	w.mu.Unlock()
	if fn != nil {
		fn(s)
	}
}

// offer submits ev, calling done once it settles (or at once, with a
// synthetic error settlement, when the offer is refused).
func (w *churn) offer(ctl *controller.Controller, ev controller.Event, done func(controller.Settlement)) {
	w.mu.Lock()
	w.waiting[ev.At.UnixNano()] = done
	w.mu.Unlock()
	if err := ctl.Offer(ev); err != nil {
		w.mu.Lock()
		delete(w.waiting, ev.At.UnixNano())
		w.mu.Unlock()
		done(controller.Settlement{Event: ev, Outcome: controller.OutcomeError, Err: err})
	}
}

func (w *churn) setup(o *obs.Observer, tr *tracer) error {
	w.close()
	dir, err := os.MkdirTemp("", "syrep-bench-journal-")
	if err != nil {
		return err
	}
	w.dir = dir
	dfs, err := journal.NewDirFS(dir)
	if err != nil {
		return err
	}
	var fsys journal.FS = dfs
	var sink controller.Sink
	w.sink = controller.NewMemSink()
	sink = w.sink
	w.io, w.push = nil, nil
	if tr != nil {
		// Timing decorators measure journal and push costs from outside.
		w.io = &ioStats{tr: tr}
		w.push = &pushStats{tr: tr, first: map[uint64]time.Time{}}
		fsys = timedFS{FS: dfs, st: w.io}
		sink = timedSink{inner: w.sink, st: w.push}
	}
	w.jrn, err = journal.Open(fsys, journal.Options{Obs: o})
	if err != nil {
		return err
	}
	w.cache = cache.New(cache.Config{MaxEntries: 4096, Obs: o})
	if err := w.seedCache(); err != nil {
		return err
	}
	w.waiting = map[int64]func(controller.Settlement){}
	w.down = ""
	ctl, err := controller.New(controller.Config{
		Base:          w.base,
		K:             churnK,
		Sink:          sink,
		Cache:         w.cache,
		RepairTimeout: time.Second,
		RetrySeed:     w.cfg.seed,
		Journal:       w.jrn,
		Obs:           o,
		OnSettle:      w.onSettle,
	})
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	w.stop, w.runExit = stop, make(chan error, 1)
	go func() { w.runExit <- ctl.Run(ctx) }()
	w.ctl = ctl

	// Warm-up: fail and restore a few links, one event at a time, so the
	// first pass has pushed every destination's snapshot and the journal
	// and pusher are running.
	for _, l := range w.links[:churnWarmLinks] {
		for _, up := range []bool{false, true} {
			got := make(chan controller.Settlement, 1)
			w.offer(ctl, controller.Event{Link: l, Up: up, At: time.Now()}, func(s controller.Settlement) { got <- s })
			select {
			case s := <-got:
				if s.Outcome != controller.OutcomePushed {
					return fmt.Errorf("warm-up event %v settled %v: %v", s.Event, s.Outcome, s.Err)
				}
			case <-time.After(settleWait):
				return fmt.Errorf("warm-up event on %s did not settle within %v", l, settleWait)
			}
		}
	}
	return w.checkTables()
}

// seedCache puts a cold-synthesized table for every destination of every
// state the stream can reach — all links up, or any one link down — into the
// controller's cache. Repairs then take the warm path from an exact seed.
// Letting the warm-up events fill the cache instead costs seconds per
// set-up: adapting the all-up table onto some one-down topologies leaves a
// hole fill that takes ~1.7s, longer than the 1s repair timeout.
func (w *churn) seedCache() error {
	states := [][]network.EdgeID{nil}
	for _, e := range w.base.RealEdges() {
		states = append(states, []network.EdgeID{e})
	}
	for _, drop := range states {
		topo, err := network.WithoutEdges(w.base, drop)
		if err != nil {
			return err
		}
		for _, v := range topo.Nodes() {
			r, _, err := resilience.Synthesize(context.Background(), topo, v, churnK, resilience.Options{})
			if err != nil {
				return fmt.Errorf("seeding the cache: %w", err)
			}
			w.cache.Put(cache.Key{
				Topo:     topo.Fingerprint(),
				Dest:     topo.NodeName(v),
				K:        churnK,
				Strategy: resilience.Combined.String(),
			}, &cache.Entry{Net: topo, Routing: r, Resilient: true})
		}
	}
	return nil
}

func (w *churn) run(ph *phase) error {
	ph.begin(len(w.seq))
	var io0 ioCounts
	var pushes0 int64
	if w.io != nil {
		io0, pushes0 = w.io.counts(), w.push.pushes.Load()
	}
	cs0 := w.cache.Stats()
	dues := make([]time.Time, len(w.seq))
	epochs := make([]uint64, len(w.seq))
	last := sendAll(ph, w.at, func(i int, due time.Time) {
		ev := w.seq[i]
		ev.At = due
		dues[i] = due
		span := ph.tr.begin("op:event", 0, due)
		call := ph.tr.begin("controller.Offer", span, time.Now())
		w.offer(w.ctl, ev, func(s controller.Settlement) {
			end := time.Now()
			epochs[i] = s.Epoch
			ph.tr.end(span, end)
			ph.opDone(i, due, end, s.Outcome != controller.OutcomePushed)
		})
		ph.tr.end(call, time.Now())
		w.mu.Lock()
		if ev.Up {
			w.down = ""
		} else {
			w.down = ev.Link
		}
		w.mu.Unlock()
	})
	err := ph.await(last, time.Minute)
	ph.finish()
	if err != nil {
		return err
	}
	if ph.tr == nil {
		return w.checkTables()
	}
	n := float64(ph.ops())
	c := func(name string) float64 { return float64(ph.counters[name]) }
	ph.setLayer("controller.repairs_per_event", ratio(c(obs.CtlRepairs), n))
	ph.setLayer("controller.warm_ratio", ratio(c(obs.CtlWarmRepairs), c(obs.CtlRepairs)))
	ph.setLayer("controller.stale_per_event", ratio(c(obs.CtlStale), n))
	ph.setLayer("controller.coalesced_ratio", ratio(c(obs.CtlCoalesced), c(obs.CtlEvents)))
	ph.setLayer("controller.noop_ratio", ratio(c(obs.CtlNoops), n))
	ph.setLayer("controller.degraded_ratio", ratio(c(obs.CtlDegraded), c(obs.CtlRepairs)))
	cacheLayer(ph, cs0, w.cache.Stats())
	io1 := w.io.counts()
	ph.setLayer("journal.writes_per_event", ratio(float64(io1.writes-io0.writes), n))
	ph.setLayer("journal.syncs_per_event", ratio(float64(io1.syncs-io0.syncs), n))
	ph.setLayer("journal.sync_ms_per_event", ratio(float64(io1.syncNs-io0.syncNs)/1e6, n))
	ph.setLayer("journal.bytes_per_event", ratio(float64(io1.bytes-io0.bytes), n))
	ph.setLayer("sink.pushes_per_event", ratio(float64(w.push.pushes.Load()-pushes0), n))
	ph.setLayer("sink.push_lag_ms_p50", median(w.push.lags(dues, epochs)))
	return w.checkTables()
}

// checkTables is the churn correctness gate, run once the stream has
// settled: every destination's table as the sink holds it — rebuilt from
// its canonical edge keys on the final topology — must be perfectly
// k-resilient there. A table naming a failed link does not rebuild.
func (w *churn) checkTables() error {
	w.mu.Lock()
	down := w.down
	w.mu.Unlock()
	var drop []network.EdgeID
	if down != "" {
		e, _ := w.base.EdgeByKey(down)
		drop = append(drop, e)
	}
	topo, err := network.WithoutEdges(w.base, drop)
	if err != nil {
		return err
	}
	for _, v := range topo.Nodes() {
		dest := topo.NodeName(v)
		r, err := rebuild(topo, v, w.sink.Table(dest))
		if err == nil && !resilientTable(r, churnK) {
			err = fmt.Errorf("not perfectly %d-resilient", churnK)
		}
		if err != nil {
			w.bad++
			w.final = append(w.final, fmt.Sprintf("final table of %s (down: %q): %v", dest, down, err))
		}
	}
	return nil
}

// rebuild resolves a sink's wire-form table on net by canonical edge key.
func rebuild(net *network.Network, dest network.NodeID, table map[string]controller.TableEntry) (*routing.Routing, error) {
	if len(table) == 0 {
		return nil, errors.New("empty table")
	}
	r := routing.New(net, dest)
	for _, e := range table {
		in, ok := net.EdgeByKey(e.In)
		at := net.NodeByName(e.At)
		if !ok || at == network.NoNode {
			return nil, fmt.Errorf("entry %s@%s not on the final topology", e.In, e.At)
		}
		prio := make([]network.EdgeID, len(e.Prio))
		for i, key := range e.Prio {
			if prio[i], ok = net.EdgeByKey(key); !ok {
				return nil, fmt.Errorf("entry %s@%s forwards over %s, not on the final topology", e.In, e.At, key)
			}
		}
		if err := r.Set(in, at, prio); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (w *churn) check() (int, []string) { return w.bad, w.final }

func (w *churn) close() {
	if w.stop != nil {
		w.stop()
		<-w.runExit
		w.stop = nil
	}
	if w.jrn != nil {
		_ = w.jrn.Close() // the directory is removed next
		w.jrn = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // a temporary directory; nothing to report
		w.dir = ""
	}
}

// ioCounts are the journal's filesystem operations, counted from outside.
type ioCounts struct{ writes, bytes, syncs, syncNs int64 }

type ioStats struct {
	tr                           *tracer
	writes, bytes, syncs, syncNs atomic.Int64
}

func (s *ioStats) counts() ioCounts {
	return ioCounts{s.writes.Load(), s.bytes.Load(), s.syncs.Load(), s.syncNs.Load()}
}

// timedFS decorates the journal's filesystem so every file it opens is
// timed.
type timedFS struct {
	journal.FS
	st *ioStats
}

func (f timedFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, st: f.st}, nil
}

type timedFile struct {
	journal.File
	st *ioStats
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.st.tr.add("journal.write", start, time.Now())
	f.st.writes.Add(1)
	f.st.bytes.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.st.tr.add("journal.sync", start, end)
	f.st.syncs.Add(1)
	f.st.syncNs.Add(end.Sub(start).Nanoseconds())
	return err
}

// pushStats counts southbound pushes and when each epoch first reached the
// sink.
type pushStats struct {
	tr     *tracer
	pushes atomic.Int64
	mu     sync.Mutex
	first  map[uint64]time.Time
}

// timedSink decorates the in-memory sink so every push is timed.
type timedSink struct {
	inner *controller.MemSink
	st    *pushStats
}

func (s timedSink) Push(ctx context.Context, d controller.Delta) error {
	start := time.Now()
	err := s.inner.Push(ctx, d)
	end := time.Now()
	s.st.tr.add("sink.push", start, end)
	if err == nil {
		s.st.pushes.Add(1)
		s.st.mu.Lock()
		if _, ok := s.st.first[d.Epoch]; !ok {
			s.st.first[d.Epoch] = end
		}
		s.st.mu.Unlock()
	}
	return err
}

// lags returns, per event whose settling epoch reached the sink, the time
// from the event's scheduled time to the first push carrying that epoch.
func (s *pushStats) lags(due []time.Time, epochs []uint64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for i, e := range epochs {
		if at, ok := s.first[e]; ok && !at.Before(due[i]) {
			out = append(out, float64(at.Sub(due[i]).Nanoseconds())/1e6)
		}
	}
	return out
}
