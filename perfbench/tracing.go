package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/phiwire"
)

// Operation kinds, shared by every layer's spans.
const (
	opLookup uint8 = iota
	opStart
	opProgress
	opEnd
)

// Span layers, outermost first.
const (
	layerClient  uint8 = iota // phiwire.Client call in the generator
	layerBackend              // Backend call made by the phiwire.Server
	layerConn                 // Frontend's call into a Shard or Member
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's base. lc is the lifecycle id (set on client spans, and
// on server-side spans once tied); parent indexes the recorder's merged
// span list (-1 when untied).
type span struct {
	start, end int64
	path       phi.PathKey
	lc         int64
	parent     int32
	op         uint8
	conn       int8 // client connection, or shard index for layerConn
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory while on is set. Client spans are
// appended by each connection's generator goroutine; server-side spans by
// the wrappers below, under mu.
type recorder struct {
	base time.Time
	on   atomic.Bool

	client [conns][]span // owned by generator goroutine c

	mu      sync.Mutex // guards backend and shard
	backend [conns][]span
	shard   [shards][]span

	reads, writes atomic.Uint64 // server-side conn Read/Write calls
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// setOn switches recording; a nil recorder ignores it.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// reset drops every span and count recorded so far. Call with
// recording off and no generator running.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.client {
		r.client[c] = r.client[c][:0]
		r.backend[c] = r.backend[c][:0]
	}
	for i := range r.shard {
		r.shard[i] = r.shard[i][:0]
	}
	r.reads.Store(0)
	r.writes.Store(0)
}

func (r *recorder) addServer(buf *[]span, s span) {
	r.mu.Lock()
	*buf = append(*buf, s)
	r.mu.Unlock()
}

// calls is the method set phiwire.Backend and cluster.Conn share, so
// one timing wrapper serves both layer boundaries.
type calls interface {
	Lookup(path phi.PathKey) (phi.Context, error)
	ReportStart(path phi.PathKey) error
	ReportEnd(path phi.PathKey, r phi.Report) error
	ReportProgress(path phi.PathKey, r phi.Report) error
}

// wrapBackend times the phiwire.Server's calls into the Frontend on
// connection c. A nil recorder returns b unchanged.
func (r *recorder) wrapBackend(c int, b phiwire.Backend) phiwire.Backend {
	if r == nil {
		return b
	}
	return &timed{inner: b, rec: r, buf: &r.backend[c], id: int8(c)}
}

// wrapConn times the Frontend's calls into shard i (a cluster.Shard or a
// fleet.Member). A nil recorder returns c unchanged.
func (r *recorder) wrapConn(i int, c cluster.Conn) cluster.Conn {
	if r == nil {
		return c
	}
	return &timed{inner: c, rec: r, buf: &r.shard[i], id: int8(i)}
}

// timed records a span into buf around each call while recording is on.
type timed struct {
	inner calls
	rec   *recorder
	buf   *[]span
	id    int8 // connection or shard index
}

func (t *timed) record(op uint8, path phi.PathKey, start int64) {
	t.rec.addServer(t.buf, span{start: start, end: t.rec.now(), path: path, op: op, conn: t.id, parent: -1})
}

func (t *timed) Lookup(path phi.PathKey) (phi.Context, error) {
	if !t.rec.on.Load() {
		return t.inner.Lookup(path)
	}
	start := t.rec.now()
	ctx, err := t.inner.Lookup(path)
	t.record(opLookup, path, start)
	return ctx, err
}

func (t *timed) ReportStart(path phi.PathKey) error {
	if !t.rec.on.Load() {
		return t.inner.ReportStart(path)
	}
	start := t.rec.now()
	err := t.inner.ReportStart(path)
	t.record(opStart, path, start)
	return err
}

func (t *timed) ReportProgress(path phi.PathKey, rep phi.Report) error {
	if !t.rec.on.Load() {
		return t.inner.ReportProgress(path, rep)
	}
	start := t.rec.now()
	err := t.inner.ReportProgress(path, rep)
	t.record(opProgress, path, start)
	return err
}

func (t *timed) ReportEnd(path phi.PathKey, rep phi.Report) error {
	if !t.rec.on.Load() {
		return t.inner.ReportEnd(path, rep)
	}
	start := t.rec.now()
	err := t.inner.ReportEnd(path, rep)
	t.record(opEnd, path, start)
	return err
}

// wrapListener counts Read and Write calls on every accepted connection
// while recording is on. A nil recorder returns ln unchanged.
func (r *recorder) wrapListener(ln net.Listener) net.Listener {
	if r == nil {
		return ln
	}
	return countingListener{Listener: ln, rec: r}
}

type countingListener struct {
	net.Listener
	rec *recorder
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, rec: l.rec}, nil
}

type countingConn struct {
	net.Conn
	rec *recorder
}

func (c countingConn) Read(p []byte) (int, error) {
	if c.rec.on.Load() {
		c.rec.reads.Add(1)
	}
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	if c.rec.on.Load() {
		c.rec.writes.Add(1)
	}
	return c.Conn.Write(p)
}

// selfTime is a span's duration minus the union of its children's
// intervals (each clipped to the span).
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range iv {
		if c[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
		} else if c[1] > curHi {
			curHi = c[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}

// traceResult is the recorder's spans merged into one list with parents
// resolved: client spans first, then backend, then shard-call spans.
type traceResult struct {
	spans   []span
	layer   []uint8
	nClient int
	nServer int // backend spans
	untied  int
}

// tie merges the recorded spans and links each server-side span to its
// parent. A backend span belongs to the client call on the same
// connection whose interval contains it (connections are serial, so at
// most one can). A shard-call span belongs to the backend span that
// contains it on the same path and operation; when both connections hold
// such a span at once, the call is ambiguous and counted untied, as is
// any span without a parent and any client call without a server child.
func (r *recorder) tie() traceResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	var res traceResult
	add := func(l uint8, ss []span) int {
		first := len(res.spans)
		res.spans = append(res.spans, ss...)
		for range ss {
			res.layer = append(res.layer, l)
		}
		return first
	}
	var clientAt, backendAt [conns]int
	for c := range r.client {
		clientAt[c] = add(layerClient, r.client[c])
	}
	res.nClient = len(res.spans)
	for c := range r.backend {
		backendAt[c] = add(layerBackend, r.backend[c])
	}
	res.nServer = len(res.spans) - res.nClient
	for i := range r.shard {
		add(layerConn, r.shard[i])
	}
	hasChild := make([]bool, res.nClient)

	// Backend → client: two pointers along each connection.
	for c := range r.backend {
		cs := res.spans[clientAt[c] : clientAt[c]+len(r.client[c])]
		bs := res.spans[backendAt[c] : backendAt[c]+len(r.backend[c])]
		j := 0
		for k := range bs {
			b := &bs[k]
			for j < len(cs) && cs[j].end < b.end {
				j++
			}
			if j < len(cs) && cs[j].start <= b.start && cs[j].op == b.op && !hasChild[clientAt[c]+j] {
				b.parent = int32(clientAt[c] + j)
				b.lc = cs[j].lc
				hasChild[clientAt[c]+j] = true
			} else {
				res.untied++
			}
		}
	}
	for _, h := range hasChild {
		if !h {
			res.untied++
		}
	}

	// Shard call → backend: search each connection's backend spans.
	for k := res.nClient + res.nServer; k < len(res.spans); k++ {
		x := &res.spans[k]
		found, n := -1, 0
		for c := range r.backend {
			bs := res.spans[backendAt[c] : backendAt[c]+len(r.backend[c])]
			i := sort.Search(len(bs), func(i int) bool { return bs[i].start > x.start }) - 1
			if i >= 0 && bs[i].end >= x.end && bs[i].path == x.path && bs[i].op == x.op {
				found, n = backendAt[c]+i, n+1
			}
		}
		if n == 1 && res.spans[found].parent >= 0 {
			x.parent = int32(found)
			x.lc = res.spans[found].lc
		} else {
			res.untied++
		}
	}
	return res
}

// children groups each span's children by parent index.
func (t traceResult) children() map[int32][]int {
	out := make(map[int32][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			out[s.parent] = append(out[s.parent], i)
		}
	}
	return out
}

// write dumps the spans as CSV, one line per span.
func (t traceResult) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,lifecycle,layer,op,conn,start_ns,end_ns")
	var line []byte
	for i, s := range t.spans {
		line = line[:0]
		for _, v := range []int64{int64(i), int64(s.parent), s.lc, int64(t.layer[i]), int64(s.op), int64(s.conn), s.start} {
			line = strconv.AppendInt(line, v, 10)
			line = append(line, ',')
		}
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
