package phiwire

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	healthmon "repro/internal/health"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/trace"
)

// Backend is what the wire server needs from the state plane: lookups,
// the start/end report pair, and mid-connection progress reports. Both
// the monolithic phi.Server and the sharded cluster.Frontend satisfy it,
// so one wire server fronts either deployment.
type Backend interface {
	phi.ContextSource
	phi.Reporter
	ReportProgress(path phi.PathKey, r phi.Report) error
}

// TracedBackend is the optional span-propagating facet of a Backend.
// When the backend implements it and the request carries a trace
// context, the server calls these variants so routing and shard-call
// spans join the request's trace; otherwise it falls back to the plain
// methods. cluster.Frontend implements it; a monolithic phi.Server does
// not, and reports its own time through phi_server_* histograms.
type TracedBackend interface {
	LookupSpan(sc trace.SpanContext, path phi.PathKey) (phi.Context, error)
	ReportStartSpan(sc trace.SpanContext, path phi.PathKey) error
	ReportEndSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error
	ReportProgressSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error
}

// Server-side span names.
var (
	opServerLookup   = trace.Name("server.lookup")
	opServerStart    = trace.Name("server.report_start")
	opServerEnd      = trace.Name("server.report_end")
	opServerProgress = trace.Name("server.report_progress")
	opServerPolicy   = trace.Name("server.get_policy")
)

// Server-side sub-span stage names for the /debug/stages decomposition
// (measured only when a StageAggregator is attached; see
// trace.StageAggregator). The read syscall is deliberately absent: on a
// blocking request/response connection, time in readFrame is
// indistinguishable from client idle time between requests.
var (
	stServerDecode = trace.Name("server.decode") // trace-header peel + request parse
	stServerWrite  = trace.Name("server.write")  // response frame write syscall
)

// Server serves the Phi wire protocol over TCP, backed by any Backend
// (which must be safe for concurrent use). One goroutine per connection.
// If a policy is set, clients may also fetch it at startup, so the
// context server is the single distribution point for both the shared
// state and the parameter mapping.
type Server struct {
	backend Backend
	// tbackend is backend's traced facet, resolved once at construction
	// (nil if unimplemented).
	tbackend TracedBackend

	mu     sync.Mutex
	policy []byte // serialized policy, nil if none
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	logf   func(format string, args ...any)

	// handled counts requests served, rejected counts malformed frames.
	// They are atomics so Stats is safe to call while serving.
	handled  atomic.Uint64
	rejected atomic.Uint64

	// metrics is the optional telemetry surface (nil = uninstrumented).
	// Set before Serve: the field is read without synchronization.
	metrics *ServerMetrics

	// tracer records per-request spans (nil = untraced). Set before
	// Serve: the field is read without synchronization. Traced request
	// frames are understood and answered regardless — the tracer only
	// controls whether this process records spans of its own.
	tracer *trace.Tracer

	// health feeds connection churn and trace-evidence pointers to the
	// live health monitor (nil = unmonitored; Record methods are
	// nil-safe). Set before Serve.
	health *healthmon.Monitor

	// wire aggregates resource attribution across all connections:
	// frames, conn Read/Write calls (≈ syscalls), and bytes (nil =
	// unaccounted). Guarded by mu — each connection captures it once at
	// accept, so attaching counters on a serving server is safe and
	// takes effect for connections accepted after the call.
	wire *obs.WireCounters
}

// SetMetrics attaches (or detaches, with nil) the telemetry surface.
// Call before Serve.
func (s *Server) SetMetrics(m *ServerMetrics) { s.metrics = m }

// SetTracer attaches (or detaches, with nil) the span tracer. Call
// before Serve. With a tracer set, every request gets a handling span:
// requests carrying a wire trace header join the client's trace, the
// rest start server-local traces.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// SetHealth attaches (or detaches, with nil) the live health monitor.
// Call before Serve.
func (s *Server) SetHealth(m *healthmon.Monitor) { s.health = m }

// SetWire attaches (or detaches, with nil) the wire accounting counters,
// aggregated over every connection accepted after the call.
func (s *Server) SetWire(w *obs.WireCounters) {
	s.mu.Lock()
	s.wire = w
	s.mu.Unlock()
}

// Wire returns the attached wire counters (nil if unaccounted).
func (s *Server) Wire() *obs.WireCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wire
}

// NewServer wraps backend for network service. logf, if non-nil, receives
// connection-level errors; nil discards them.
func NewServer(backend Backend, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tb, _ := backend.(TracedBackend)
	return &Server{backend: backend, tbackend: tb, conns: make(map[net.Conn]struct{}), logf: logf}
}

// SetPolicy publishes a parameter policy for clients to fetch; nil
// unpublishes it.
func (s *Server) SetPolicy(p *phi.Policy) error {
	if p == nil {
		s.mu.Lock()
		s.policy = nil
		s.mu.Unlock()
		return nil
	}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.policy = data
	s.mu.Unlock()
	return nil
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	m := s.metrics
	if m != nil {
		m.OpenConns.Add(1)
	}
	s.health.RecordConn(1)
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if m != nil {
			m.OpenConns.Add(-1)
		}
		s.health.RecordConn(-1)
		s.wg.Done()
	}()
	// rw is the accounted view of the connection (conn itself when no
	// wire counters are attached); close/bookkeeping stays on conn. The
	// counters are captured once per connection, so the per-frame bumps
	// below never touch the mu-guarded field.
	s.mu.Lock()
	wire := s.wire
	s.mu.Unlock()
	rw := obs.CountConn(conn, wire)
	// Per-connection frame-serialization scratch, reused across responses
	// so each frame is one Write and steady state allocates nothing.
	var wbuf []byte
	for {
		payload, err := readFrame(rw)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("phiwire: read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		wire.FrameRead()
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		resp, tid := s.handle(payload)
		if m != nil {
			m.HandleSeconds.ObserveExemplar(time.Since(start), uint64(tid))
		}
		st := s.tracer.Stages()
		var w0 time.Time
		if st != nil {
			w0 = time.Now()
		}
		if err := writeFrameBuf(rw, resp, &wbuf); err != nil {
			s.logf("phiwire: write to %v: %v", conn.RemoteAddr(), err)
			return
		}
		wire.FrameWritten()
		if st != nil {
			st.Observe(stServerWrite, time.Since(w0))
		}
	}
}

// handle processes one request payload and returns the response payload
// plus the trace ID of the span recorded for it (zero when untraced).
func (s *Server) handle(payload []byte) ([]byte, trace.TraceID) {
	m := s.metrics
	st := s.tracer.Stages()
	var d0 time.Time
	if st != nil {
		d0 = time.Now()
	}
	if len(payload) == 0 {
		s.bumpRejected()
		return encodeError("empty frame"), 0
	}
	typ, body := payload[0], payload[1:]
	// Requests (high bit clear) may carry a trace header; peel it off
	// before dispatch. Traced frames are accepted whether or not this
	// server records spans of its own.
	var sc trace.SpanContext
	if typ&0x80 == 0 && typ&TraceFlag != 0 {
		var err error
		sc, body, err = readSpanContext(body)
		if err != nil {
			s.bumpRejected()
			return encodeError("malformed trace header"), 0
		}
		typ &^= TraceFlag
	}
	switch typ {
	case MsgHello:
		if _, _, err := decodeHello(body); err != nil {
			s.bumpRejected()
			return encodeError("malformed hello"), 0
		}
		s.bumpHandled()
		return encodeHello(MsgHelloAck, ProtocolVersion, CapTrace), 0
	case MsgLookup:
		path, _, err := readString(body)
		if err != nil {
			s.bumpRejected()
			return encodeError("malformed lookup"), 0
		}
		if len(path) > MaxPathLen {
			s.bumpRejected()
			return encodeError("path key too long"), 0
		}
		if st != nil {
			st.Observe(stServerDecode, time.Since(d0))
		}
		sp := s.startSpan(sc, opServerLookup)
		ctx, err := s.backendLookup(sp.Context(), phi.PathKey(path))
		sp.End(err)
		if err != nil {
			return s.encodeBackendError(err), sp.Context().Trace
		}
		s.bumpHandled()
		if m != nil {
			m.Lookups.Inc()
		}
		// Hand the monitor the trace-evidence pointer: the last trace ID
		// seen per slice is what gets marked interesting on an anomaly.
		s.health.RecordTrace(path, uint64(sp.Context().Trace))
		return encodeContext(ctx), sp.Context().Trace
	case MsgReportStart:
		path, _, err := readString(body)
		if err != nil {
			s.bumpRejected()
			return encodeError("malformed report-start"), 0
		}
		if len(path) > MaxPathLen {
			s.bumpRejected()
			return encodeError("path key too long"), 0
		}
		if st != nil {
			st.Observe(stServerDecode, time.Since(d0))
		}
		sp := s.startSpan(sc, opServerStart)
		err = s.backendReportStart(sp.Context(), phi.PathKey(path))
		sp.End(err)
		if err != nil {
			return s.encodeBackendError(err), sp.Context().Trace
		}
		s.bumpHandled()
		if m != nil {
			m.Starts.Inc()
		}
		return []byte{MsgOK}, sp.Context().Trace
	case MsgGetPolicy:
		s.mu.Lock()
		policy := s.policy
		s.mu.Unlock()
		sp := s.startSpan(sc, opServerPolicy)
		if policy == nil {
			err := errors.New("no policy published")
			sp.End(err)
			return s.encodeBackendError(err), sp.Context().Trace
		}
		sp.End(nil)
		s.bumpHandled()
		if m != nil {
			m.Policies.Inc()
		}
		return append([]byte{MsgPolicy}, policy...), sp.Context().Trace
	case MsgReportEnd, MsgProgress:
		path, report, err := decodeReportEnd(body)
		if err != nil {
			s.bumpRejected()
			return encodeError("malformed report"), 0
		}
		if len(path) > MaxPathLen {
			s.bumpRejected()
			return encodeError("path key too long"), 0
		}
		if st != nil {
			st.Observe(stServerDecode, time.Since(d0))
		}
		name := opServerEnd
		if typ == MsgProgress {
			name = opServerProgress
		}
		sp := s.startSpan(sc, name)
		var herr error
		if typ == MsgProgress {
			herr = s.backendReportProgress(sp.Context(), path, report)
		} else {
			herr = s.backendReportEnd(sp.Context(), path, report)
		}
		sp.End(herr)
		if herr != nil {
			return s.encodeBackendError(herr), sp.Context().Trace
		}
		s.bumpHandled()
		if m != nil {
			if typ == MsgProgress {
				m.Progresses.Inc()
			} else {
				m.Ends.Inc()
			}
		}
		return []byte{MsgOK}, sp.Context().Trace
	default:
		s.bumpRejected()
		return encodeError("unknown message type"), 0
	}
}

// startSpan opens the handling span for a request: joining the wire
// trace when the client sent one, starting a server-local trace
// otherwise. With no tracer it returns a no-op span.
func (s *Server) startSpan(sc trace.SpanContext, name trace.Ref) trace.Span {
	if sc.Valid() {
		return s.tracer.StartRemote(sc, name)
	}
	return s.tracer.Start(trace.SpanContext{}, name)
}

// backendLookup and friends dispatch to the traced backend facet when
// both a traced backend and a live span context exist, and to the plain
// Backend methods otherwise.
func (s *Server) backendLookup(sc trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	if s.tbackend != nil && sc.Valid() {
		return s.tbackend.LookupSpan(sc, path)
	}
	return s.backend.Lookup(path)
}

func (s *Server) backendReportStart(sc trace.SpanContext, path phi.PathKey) error {
	if s.tbackend != nil && sc.Valid() {
		return s.tbackend.ReportStartSpan(sc, path)
	}
	return s.backend.ReportStart(path)
}

func (s *Server) backendReportEnd(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	if s.tbackend != nil && sc.Valid() {
		return s.tbackend.ReportEndSpan(sc, path, r)
	}
	return s.backend.ReportEnd(path, r)
}

func (s *Server) backendReportProgress(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	if s.tbackend != nil && sc.Valid() {
		return s.tbackend.ReportProgressSpan(sc, path, r)
	}
	return s.backend.ReportProgress(path, r)
}

// encodeBackendError counts and encodes an application-level error (the
// backend refused the request — e.g. a degraded cluster — as opposed to
// a malformed frame).
func (s *Server) encodeBackendError(err error) []byte {
	if m := s.metrics; m != nil {
		m.Errors.Inc()
	}
	return encodeError(err.Error())
}

func (s *Server) bumpHandled() { s.handled.Add(1) }

func (s *Server) bumpRejected() {
	s.rejected.Add(1)
	if m := s.metrics; m != nil {
		m.Rejected.Inc()
	}
}

// Stats returns handled/rejected counters. It is safe to call while the
// server is serving.
func (s *Server) Stats() (handled, rejected uint64) {
	return s.handled.Load(), s.rejected.Load()
}
