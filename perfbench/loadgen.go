package main

import (
	"sync"
	"time"

	"repro/internal/phi"
	"repro/internal/phiwire"
)

// sender runs lifecycles over one connection and counts what it sent.
// Each connection has its own sender, used by one goroutine at a time.
type sender struct {
	conn   int
	client *phiwire.Client
	keys   []phi.PathKey
	truths []truth
	steps  int // ReportProgress calls per lifecycle
	rec    *recorder

	lookups, reports  uint64 // requests sent, by Frontend counter
	attempted, failed uint64
	lcSeq             int64

	traced bool  // the current lifecycle records client spans
	lc     int64 // the current lifecycle's span id
}

// outcome is when a lifecycle's Lookup and final ReportEnd completed.
type outcome struct {
	lookupDone, endDone time.Time
	err                 error
}

// run performs one lifecycle: Lookup, ReportStart, the workload's
// progress reports, ReportEnd. It stops at the first failed request.
func (d *sender) run(lc lifecycle) outcome {
	path := d.keys[lc.path]
	t := d.truths[lc.path]
	d.lcSeq++
	d.traced = d.rec != nil && d.rec.on.Load()
	d.lc = int64(d.conn)<<40 | d.lcSeq
	var out outcome
	t0 := d.begin()
	d.lookups++
	_, out.err = d.client.Lookup(path)
	if out.err = d.done(opLookup, path, t0, out.err); out.err != nil {
		return out
	}
	out.lookupDone = time.Now()
	t0 = d.begin()
	d.reports++
	if out.err = d.done(opStart, path, t0, d.client.ReportStart(path)); out.err != nil {
		return out
	}
	chunk := lc.bytes / int64(d.steps+1)
	for i := 0; i < d.steps; i++ {
		t0 = d.begin()
		d.reports++
		if out.err = d.done(opProgress, path, t0, d.client.ReportProgress(path, t.report(chunk))); out.err != nil {
			return out
		}
	}
	t0 = d.begin()
	d.reports++
	if out.err = d.done(opEnd, path, t0, d.client.ReportEnd(path, t.report(lc.bytes-chunk*int64(d.steps)))); out.err != nil {
		return out
	}
	out.endDone = time.Now()
	return out
}

// begin counts a request about to go out and returns its start time
// when the lifecycle is traced.
func (d *sender) begin() int64 {
	d.attempted++
	if d.traced {
		return d.rec.now()
	}
	return 0
}

// done records the request's client span (when traced) and its failure.
func (d *sender) done(op uint8, path phi.PathKey, t0 int64, err error) error {
	if d.traced {
		d.rec.client[d.conn] = append(d.rec.client[d.conn], span{start: t0, end: d.rec.now(), path: path, lc: d.lc, op: op, conn: int8(d.conn), parent: -1})
	}
	if err != nil {
		d.failed++
	}
	return err
}

// closedLoop runs lifecycles back to back on every connection until end
// and returns how many completed within [from, end].
func closedLoop(senders []*sender, streams []*stream, from, end time.Time) int {
	counts := make([]int, len(senders))
	var wg sync.WaitGroup
	for c := range senders {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				o := senders[c].run(streams[c].next())
				if o.err == nil && !o.endDone.Before(from) && !o.endDone.After(end) {
					counts[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for _, k := range counts {
		n += k
	}
	return n
}

// prefill runs one lifecycle on every path, the paths split across the
// connections, so every path has state before the first warm-up and the
// measured phases see a path table of steady size.
func prefill(senders []*sender, paths int) {
	var wg sync.WaitGroup
	for c, d := range senders {
		wg.Add(1)
		go func(c int, d *sender) {
			defer wg.Done()
			for p := c; p < paths; p += len(senders) {
				d.run(lifecycle{path: p, bytes: meanBytes})
			}
		}(c, d)
	}
	wg.Wait()
}

// fixedSample is the open-loop record of one measured lifecycle.
type fixedSample struct {
	lookup, lifecycle, late, queueWait time.Duration
}

// openLoop is one connection's open-loop accounting. Each lifecycle is
// timed from when it was due, less the generator's own lateness: the
// time from when its first request could have gone out (the later of
// its due time and its connection becoming free) to when it did. The
// connection counts as free when the previous lifecycle would have
// completed had the generator been on time — its completion less its
// own lateness — so one late wake-up is not charged again as queueing
// to the lifecycles behind it.
type openLoop struct {
	free time.Time
}

// account records a lifecycle due at due whose first request went out
// at sent, whose Lookup completed at lookupDone and whose ReportEnd
// completed at endDone.
func (o *openLoop) account(due, sent, lookupDone, endDone time.Time) fixedSample {
	could := due
	var s fixedSample
	if o.free.After(due) {
		could = o.free
		s.queueWait = o.free.Sub(due)
	}
	s.late = max(sent.Sub(could), 0)
	s.lookup = lookupDone.Sub(due) - s.late
	s.lifecycle = endDone.Sub(due) - s.late
	o.free = endDone.Add(-s.late)
	return s
}

// fixedRate drives Poisson arrivals at rate lifecycles/s, split evenly
// over the connections, from start until end. Lifecycles due at or after
// from are measured; failed ones are counted by their sender. It returns
// once every lifecycle has completed.
func fixedRate(senders []*sender, streams []*stream, rate float64, start, from, end time.Time) []fixedSample {
	per := make([][]fixedSample, len(senders))
	perConn := rate / float64(len(senders))
	var wg sync.WaitGroup
	for c := range senders {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := start
			ol := openLoop{free: start}
			for {
				due = due.Add(streams[c].gap(perConn))
				if !due.Before(end) {
					return
				}
				lc := streams[c].next()
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				o := senders[c].run(lc)
				if o.err != nil {
					ol.free = time.Now()
					continue
				}
				smp := ol.account(due, sent, o.lookupDone, o.endDone)
				if !due.Before(from) {
					per[c] = append(per[c], smp)
				}
			}
		}(c)
	}
	wg.Wait()
	var samples []fixedSample
	for c := range per {
		samples = append(samples, per[c]...)
	}
	return samples
}
