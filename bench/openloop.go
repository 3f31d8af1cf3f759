package main

import (
	"math/rand"
	"time"
)

// schedule returns n send times, as offsets from the phase start, with
// exponential gaps (Poisson arrivals) rescaled so the n sends span exactly
// n/rate seconds: every seed offers the same load, and only the arrival
// pattern differs.
func schedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	gaps := make([]float64, n)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	scale := float64(n) / rate / sum * float64(time.Second)
	at := make([]time.Duration, n)
	var t float64
	for i, g := range gaps {
		t += g * scale
		at[i] = time.Duration(t)
		if i > 0 && at[i] <= at[i-1] {
			at[i] = at[i-1] + 1 // send times double as op identities
		}
	}
	return at
}

// sendAll is the open-loop generator: it calls send for op i at its
// scheduled time whatever the system's state, records how late each send
// ran, and returns when the last op has been sent.
func sendAll(ph *phase, at []time.Duration, send func(i int, due time.Time)) time.Time {
	var last time.Time
	for i, off := range at {
		due := ph.start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		last = time.Now()
		ph.lags = append(ph.lags, float64(last.Sub(due).Nanoseconds())/1e6)
		send(i, due)
	}
	return last
}
