package main

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/phi"
	"repro/internal/sim"
)

var errStats = errors.New("frontend counters disagree with the generator")

// qTolerance is how far a served Q may sit from the planted queueing
// delay (the server's EWMA of a constant truncates by at most 1ns).
const qTolerance = sim.Microsecond

// verifyContext checks one drained path's served context against its
// planted truth: Q equals the queueing delay, no sender is still
// registered, and utilization is a fraction.
func verifyContext(ctx phi.Context, t truth) error {
	if d := ctx.Q - t.queue; d > qTolerance || d < -qTolerance {
		return fmt.Errorf("q=%v, planted %v", ctx.Q, t.queue)
	}
	if ctx.N != 0 {
		return fmt.Errorf("n=%d after drain, want 0", ctx.N)
	}
	if ctx.U < 0 || ctx.U > 1 {
		return fmt.Errorf("u=%v outside [0,1]", ctx.U)
	}
	return nil
}

// checkContexts looks up every path over the wire, split across the
// connections, and returns how many failed verification (transport
// errors included) with the first failure.
func checkContexts(senders []*sender) (misses int, first error) {
	n := len(senders[0].keys)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c, d := range senders {
		wg.Add(1)
		go func(c int, d *sender) {
			defer wg.Done()
			for i := c; i < n; i += len(senders) {
				d.attempted++
				d.lookups++
				ctx, err := d.client.Lookup(d.keys[i])
				if err == nil {
					err = verifyContext(ctx, d.truths[i])
				}
				if err != nil {
					d.failed++
					mu.Lock()
					misses++
					if first == nil {
						first = fmt.Errorf("path %s: %w", d.keys[i], err)
					}
					mu.Unlock()
				}
			}
		}(c, d)
	}
	wg.Wait()
	return misses, first
}

// checkCounters compares the Frontend's operation counters with what
// the generator sent.
func checkCounters(s *stack, senders []*sender) error {
	var lookups, reports uint64
	for _, d := range senders {
		lookups += d.lookups
		reports += d.reports
	}
	st := s.fe.Stats()
	if st.Lookups != lookups || st.Reports != reports {
		return fmt.Errorf("%w: frontend saw %d lookups and %d reports, generator sent %d and %d",
			errStats, st.Lookups, st.Reports, lookups, reports)
	}
	return nil
}
