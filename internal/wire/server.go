package wire

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idaax/internal/admission"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
)

// Config parameterises a wire server.
type Config struct {
	// NewSession opens an engine session for an authorization id (required).
	NewSession func(user string) Session
	// CloseSession releases an engine session when the pool drops it (nil ok;
	// open transactions are rolled back first either way).
	CloseSession func(Session)
	// Admission gates every statement (nil = admission off, everything runs
	// immediately).
	Admission *admission.Controller
	// Obs receives the wire_* metrics (nil ok).
	Obs *obs.Registry
	// Events receives lifecycle and reaping events (nil ok).
	Events *eventlog.Log
	// OpsHandler, when set, serves every path outside /v1/ — mounting the
	// read-only ops endpoints (/metrics, /healthz, ...) on the same port.
	OpsHandler http.Handler
	// DefaultUser is the authorization id used when a request names none.
	DefaultUser string
	// IdleTimeout reaps pooled sessions unused for this long (default 5m;
	// negative disables reaping).
	IdleTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight statements
	// before shutting down anyway (default 30s).
	DrainTimeout time.Duration
	// ChunkRows is the default rows-per-frame of streamed responses
	// (default 512).
	ChunkRows int
}

// Defaults used when Config leaves them zero.
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultDrainTimeout = 30 * time.Second
	DefaultChunkRows    = 512
)

// pooledSession is one entry of the session pool: the engine session, its
// defaults, and the bookkeeping the reaper reads. The mutex serialises
// statements — engine sessions are not concurrency-safe, and serialising here
// preserves transaction ordering for clients that pipeline requests.
type pooledSession struct {
	mu       sync.Mutex
	sess     Session
	user     string
	priority admission.Class
	lastUsed atomic.Int64 // unix nanos
	closed   bool
}

// Server is the wire-protocol HTTP server. Create with NewServer, start with
// Start (or mount Handler under a test server), stop with Close — which
// drains in-flight statements before the listener goes away.
type Server struct {
	cfg Config

	httpSrv *http.Server
	ln      net.Listener

	mu       sync.Mutex
	sessions map[string]*pooledSession

	inflight sync.WaitGroup
	nInfl    atomic.Int64
	draining atomic.Bool

	reapStop chan struct{}
	reapDone chan struct{}
}

// NewServer builds a server for the config; call Start (with an address) or
// serve Handler yourself.
func NewServer(cfg Config) *Server {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = DefaultChunkRows
	}
	if cfg.DefaultUser == "" {
		cfg.DefaultUser = "PUBLIC"
	}
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*pooledSession),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if r := cfg.Obs; r != nil {
		r.Counter("wire_requests_total")
		r.Counter("wire_errors_total")
		r.Counter("wire_sessions_opened")
		r.Counter("wire_sessions_reaped")
		r.GaugeFunc("wire_sessions_open", func() int64 { return int64(s.SessionCount()) })
		r.GaugeFunc("wire_inflight", func() int64 { return s.nInfl.Load() })
		r.Histogram("wire_request_seconds")
	}
	if cfg.IdleTimeout > 0 {
		go s.reapLoop()
	} else {
		close(s.reapDone)
	}
	return s
}

// Handler returns the route table as a plain http.Handler so tests can drive
// the protocol through httptest without a socket. Paths outside /v1/ fall
// through to Config.OpsHandler when one is mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSessionClose)
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) { s.handleStatement(w, r, true) })
	mux.HandleFunc("/v1/exec", func(w http.ResponseWriter, r *http.Request) { s.handleStatement(w, r, false) })
	if s.cfg.OpsHandler != nil {
		mux.Handle("/", s.cfg.OpsHandler)
	}
	return mux
}

// Start binds addr and serves in the background; it returns once the address
// is bound (so Addr is valid) or with the bind error.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.cfg.Events.Emitf(eventlog.TypeWireServer, eventlog.Info, "", "",
		"wire server listening on "+ln.Addr().String())
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound address (useful with ":0"); empty before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Draining reports whether Close has begun: new statements are rejected with
// 503 while in-flight ones finish.
func (s *Server) Draining() bool { return s.draining.Load() }

// SessionCount returns how many pooled sessions are open.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close drains and shuts down: new statements get 503 immediately, in-flight
// statements are given DrainTimeout to finish (so an acknowledged commit is
// never cut off mid-handshake), every pooled session is rolled back and
// released, the reaper stops and the listener closes. Safe to call twice.
func (s *Server) Close() error {
	if s.draining.Swap(true) {
		return nil
	}
	s.cfg.Events.Emitf(eventlog.TypeWireServer, eventlog.Info, "", "",
		fmt.Sprintf("wire server draining: %d statement(s) in flight", s.nInfl.Load()))

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Events.Emitf(eventlog.TypeWireServer, eventlog.Warn, "", "",
			fmt.Sprintf("wire drain timed out after %s with %d statement(s) in flight", s.cfg.DrainTimeout, s.nInfl.Load()))
	}

	close(s.reapStop)
	<-s.reapDone

	s.mu.Lock()
	sessions := s.sessions
	s.sessions = make(map[string]*pooledSession)
	s.mu.Unlock()
	for _, ps := range sessions {
		s.releaseSession(ps)
	}

	var err error
	if s.ln != nil {
		// In-flight statements were drained above, so the HTTP teardown only
		// has connections to collect: give idle ones a moment to close
		// cleanly, then force-close stragglers (speculative client
		// connections that never sent a request would otherwise hold
		// Shutdown until their header timeout).
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		serr := s.httpSrv.Shutdown(ctx)
		cancel()
		_ = s.httpSrv.Close()
		if serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
			err = serr
		}
	}
	s.cfg.Events.Emitf(eventlog.TypeWireServer, eventlog.Info, "", "", "wire server stopped")
	return err
}

// releaseSession rolls back any open transaction and hands the session back.
func (s *Server) releaseSession(ps *pooledSession) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return
	}
	ps.closed = true
	if ps.sess.InTransaction() {
		_ = ps.sess.Rollback()
	}
	if s.cfg.CloseSession != nil {
		s.cfg.CloseSession(ps.sess)
	}
}

// reapLoop drops sessions idle past IdleTimeout, rolling back whatever
// transaction they left open — the server-side guard against clients that
// vanish holding locks.
func (s *Server) reapLoop() {
	defer close(s.reapDone)
	interval := s.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-ticker.C:
			cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
			var expired []*pooledSession
			var tokens []string
			s.mu.Lock()
			for tok, ps := range s.sessions {
				if ps.lastUsed.Load() < cutoff {
					expired = append(expired, ps)
					tokens = append(tokens, tok)
					delete(s.sessions, tok)
				}
			}
			s.mu.Unlock()
			for i, ps := range expired {
				s.releaseSession(ps)
				s.count("wire_sessions_reaped")
				s.cfg.Events.Emitf(eventlog.TypeSessionReaped, eventlog.Info, "", "",
					fmt.Sprintf("idle session %s (user %s) reaped after %s", tokens[i][:8], ps.user, s.cfg.IdleTimeout))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

// handleSessions opens a pooled session: POST /v1/sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "use POST to open a session")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	// An empty body opens a default session: every field is optional.
	var req openSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	prio, ok := admission.ParseClass(req.Priority)
	if !ok {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown priority %q (use interactive or batch)", req.Priority))
		return
	}
	user := req.User
	if user == "" {
		user = s.cfg.DefaultUser
	}
	tok := newToken()
	ps := &pooledSession{sess: s.cfg.NewSession(user), user: user, priority: prio}
	ps.lastUsed.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.sessions[tok] = ps
	s.mu.Unlock()
	s.count("wire_sessions_opened")
	writeJSON(w, http.StatusOK, openSessionResponse{Session: tok, User: user, Priority: prio.String()})
}

// handleSessionClose closes a pooled session: DELETE /v1/sessions/{token}.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		w.Header().Set("Allow", "DELETE")
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "use DELETE /v1/sessions/{token}")
		return
	}
	tok := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	s.mu.Lock()
	ps, ok := s.sessions[tok]
	delete(s.sessions, tok)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownSession, "unknown session token")
		return
	}
	s.releaseSession(ps)
	writeJSON(w, http.StatusOK, map[string]string{"closed": tok})
}

// handleStatement runs POST /v1/query (query=true; may stream) and
// POST /v1/exec: admission, session resolution, execution, response.
func (s *Server) handleStatement(w http.ResponseWriter, r *http.Request, query bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "use POST")
		return
	}
	s.count("wire_requests_total")
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	var req statementRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, `missing "sql"`)
		return
	}

	// Resolve the session: pooled by token, or one-shot for this request
	// (opened below, once the statement is admitted).
	var ps *pooledSession
	var prio admission.Class
	if req.Session != "" {
		s.mu.Lock()
		ps = s.sessions[req.Session]
		s.mu.Unlock()
		if ps == nil {
			writeError(w, http.StatusNotFound, CodeUnknownSession, "unknown session token (expired or reaped?)")
			return
		}
		prio = ps.priority
	}

	// Priority: per-request header overrides the session default.
	if h := r.Header.Get(PriorityHeader); h != "" {
		p, ok := admission.ParseClass(h)
		if !ok {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("unknown %s %q (use interactive or batch)", PriorityHeader, h))
			return
		}
		prio = p
	}

	// Track the statement as in-flight before admission so Close's drain
	// covers queued work too.
	s.inflight.Add(1)
	s.nInfl.Add(1)
	defer func() { s.nInfl.Add(-1); s.inflight.Done() }()

	ticket, err := s.cfg.Admission.Acquire(r.Context(), prio)
	if err != nil {
		s.count("wire_errors_total")
		if errors.Is(err, admission.ErrQueueFull) || errors.Is(err, context.DeadlineExceeded) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, CodeQueueFull, err.Error())
		} else {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
		}
		return
	}
	defer ticket.Release()

	oneShot := ps == nil
	if oneShot {
		user := req.User
		if user == "" {
			user = s.cfg.DefaultUser
		}
		ps = &pooledSession{sess: s.cfg.NewSession(user), user: user}
		// Nobody can reach this session again: whatever it leaves open is
		// rolled back and the session released when the request ends.
		defer s.releaseSession(ps)
	}

	start := time.Now()
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		writeError(w, http.StatusNotFound, CodeUnknownSession, "session closed while request was queued")
		return
	}
	if qw, ok := ps.sess.(QueueWaiter); ok && ticket.Queued > 0 {
		qw.NoteQueueWait(ticket.Queued)
	}
	res, execErr := ps.sess.Exec(req.SQL)
	strandedTxn := oneShot && ps.sess.InTransaction()
	ps.mu.Unlock()
	ps.lastUsed.Store(time.Now().UnixNano())
	elapsed := time.Since(start)
	s.observe("wire_request_seconds", elapsed)

	if execErr != nil {
		s.count("wire_errors_total")
		writeError(w, http.StatusBadRequest, CodeSQLError, execErr.Error())
		return
	}
	if strandedTxn {
		s.count("wire_errors_total")
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"explicit transactions need a pooled session: open one with POST /v1/sessions and pass its token")
		return
	}
	if res == nil {
		res = &Result{}
	}
	queuedMS := float64(ticket.Queued) / float64(time.Millisecond)
	elapsedMS := float64(elapsed) / float64(time.Millisecond)

	bp := getBuf()
	buf := *bp
	if query && req.Stream {
		buf = s.streamResult(w, buf, res, req.ChunkRows, queuedMS, elapsedMS)
	} else {
		buf = appendStatementResponse(buf[:0], res, queuedMS, elapsedMS)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf) // a failed write means the client went away
	}
	putBuf(bp, buf)
}

// streamResult writes the NDJSON framing: columns, row chunks, done — each
// frame rendered into buf (returned for reuse) and flushed as one write.
func (s *Server) streamResult(w http.ResponseWriter, buf []byte, res *Result, chunkRows int, queuedMS, elapsedMS float64) []byte {
	if chunkRows <= 0 {
		chunkRows = s.cfg.ChunkRows
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	send := func() bool {
		_, err := w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	buf = appendColumnsFrame(buf[:0], res.Columns)
	send()
	for off := 0; off < len(res.Rows); off += chunkRows {
		buf = appendRowsFrame(buf[:0], res.Rows[off:min(off+chunkRows, len(res.Rows))])
		if !send() {
			return buf // client went away; nothing to clean up
		}
	}
	buf = appendDoneFrame(buf[:0], res, queuedMS, elapsedMS)
	send()
	return buf
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Code: code})
}

// newToken mints an unguessable session token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) count(name string) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Counter(name).Inc()
	}
}

func (s *Server) observe(name string, d time.Duration) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Histogram(name).Observe(d)
	}
}
