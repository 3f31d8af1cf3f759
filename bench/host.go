package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// rusage returns the process's user+sys CPU time and its peak resident set
// size in MB.
func rusage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in KiB.
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// hostRefMs times a fixed pure-Go kernel — sorting the same 2^17
// pseudo-random integers — and returns the median of five runs in
// milliseconds. It does no work of the program, so its drift between the
// start and end of a run is the host's, not the code's.
func hostRefMs() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		xs := make([]uint64, 1<<17)
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = x
		}
		start := time.Now()
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		runs = append(runs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(runs)
}

// heapSampler tracks the peak live-object heap while a traced phase runs,
// by polling runtime/metrics (which does not stop the world).
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}
