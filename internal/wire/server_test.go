package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idaax/internal/admission"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
	"idaax/internal/types"
)

// stubSession is a scripted engine session: it answers every statement from a
// function, tracks a fake transaction flag, and records what ran.
type stubSession struct {
	mu     sync.Mutex
	user   string
	stmts  []string
	inTxn  bool
	rolled int
	exec   func(sql string) (*Result, error)
	block  chan struct{} // when set, Exec waits here first
}

func (s *stubSession) Exec(sql string) (*Result, error) {
	s.mu.Lock()
	block := s.block
	s.stmts = append(s.stmts, sql)
	s.mu.Unlock()
	if block != nil {
		<-block
	}
	up := strings.ToUpper(strings.TrimSpace(sql))
	switch {
	case up == "BEGIN":
		s.mu.Lock()
		s.inTxn = true
		s.mu.Unlock()
		return &Result{Message: "transaction started"}, nil
	case up == "COMMIT":
		s.mu.Lock()
		s.inTxn = false
		s.mu.Unlock()
		return &Result{Message: "committed"}, nil
	}
	if s.exec != nil {
		return s.exec(sql)
	}
	return &Result{Columns: []string{"V"}, Rows: []types.Row{{types.NewInt(1)}}, Routed: "STUB"}, nil
}

func (s *stubSession) InTransaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inTxn
}

func (s *stubSession) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inTxn = false
	s.rolled++
	return nil
}

// testHarness is one wire server over stub sessions, listening on a loopback
// port (the protocol is exercised over a real socket, like production).
type testHarness struct {
	srv      *Server
	client   *Client
	mu       sync.Mutex
	sessions []*stubSession
}

func newHarness(t *testing.T, mut func(*Config)) *testHarness {
	t.Helper()
	h := &testHarness{}
	cfg := Config{
		NewSession: func(user string) Session {
			ss := &stubSession{user: user}
			h.mu.Lock()
			h.sessions = append(h.sessions, ss)
			h.mu.Unlock()
			return ss
		},
		IdleTimeout: -1, // tests opt in to reaping explicitly
	}
	if mut != nil {
		mut(&cfg)
	}
	h.srv = NewServer(cfg)
	if err := h.srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.srv.Close() })
	h.client = NewClient(h.srv.Addr(), nil)
	return h
}

func TestQueryRoundTrip(t *testing.T) {
	h := newHarness(t, nil)
	res, err := h.client.Query("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" || res.Routed != "STUB" {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.ElapsedMS < 0 {
		t.Fatalf("elapsed_ms = %v", res.ElapsedMS)
	}
}

func TestExecRoundTrip(t *testing.T) {
	h := newHarness(t, nil)
	h.mu.Lock()
	h.mu.Unlock()
	res, err := h.client.Exec("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed != "STUB" {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestStreamingFraming proves the NDJSON framing: columns, bounded row
// chunks, one done frame.
func TestStreamingFraming(t *testing.T) {
	rows := make([]types.Row, 25)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	h := newHarness(t, func(c *Config) {
		base := c.NewSession
		c.NewSession = func(user string) Session {
			ss := base(user).(*stubSession)
			ss.exec = func(string) (*Result, error) {
				return &Result{Columns: []string{"N"}, Rows: rows, Routed: "STUB"}, nil
			}
			return ss
		}
	})
	var chunks [][][]string
	res, err := h.client.QueryStream("SELECT n FROM t", 10, func(rows [][]string) error {
		chunks = append(chunks, rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "N" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(chunks) != 3 || len(chunks[0]) != 10 || len(chunks[2]) != 5 {
		t.Fatalf("chunk shape wrong: %d chunks", len(chunks))
	}
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total != 25 {
		t.Fatalf("streamed %d rows, want 25", total)
	}
}

// TestSessionTransactionAcrossRequests proves a pooled session keeps its
// transaction open between HTTP requests and a later request commits it.
func TestSessionTransactionAcrossRequests(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.client.OpenSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	ss := h.sessions[0]
	h.mu.Unlock()
	if !ss.InTransaction() {
		t.Fatal("transaction not open after BEGIN")
	}
	if _, err := h.client.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if ss.InTransaction() {
		t.Fatal("transaction still open after COMMIT")
	}
	if err := h.client.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if got := h.srv.SessionCount(); got != 0 {
		t.Fatalf("session count = %d after close", got)
	}
}

// TestOneShotBeginIsRefusedAndReleased is the regression test for the one-shot
// transaction leak: a BEGIN without a session token used to leave an explicit
// transaction open on a session nobody could reach again. Now the statement is
// answered with bad_request, the transaction is rolled back and the session is
// handed to CloseSession; ordinary one-shot statements are released too.
func TestOneShotBeginIsRefusedAndReleased(t *testing.T) {
	var released []Session
	var mu sync.Mutex
	h := newHarness(t, func(c *Config) {
		c.CloseSession = func(s Session) {
			mu.Lock()
			released = append(released, s)
			mu.Unlock()
		}
	})
	_, err := h.client.Exec("BEGIN")
	se, ok := err.(*ServerError)
	if !ok || se.Status != http.StatusBadRequest || se.Code != CodeBadRequest || !strings.Contains(se.Message, "pooled session") {
		t.Fatalf("one-shot BEGIN: err = %v, want 400 bad_request naming pooled sessions", err)
	}
	if _, err := h.client.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	sessions := append([]*stubSession(nil), h.sessions...)
	h.mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	if len(sessions) != 2 || len(released) != 2 {
		t.Fatalf("%d one-shot sessions opened, %d released; want 2 and 2", len(sessions), len(released))
	}
	if begin := sessions[0]; begin.InTransaction() || begin.rolled != 1 || released[0] != Session(begin) {
		t.Fatalf("BEGIN's session: inTxn=%v rolledBack=%d released=%v", begin.InTransaction(), begin.rolled, released[0] == Session(begin))
	}
	if sessions[1].rolled != 0 {
		t.Fatal("a one-shot statement without a transaction was rolled back")
	}
	if got := h.srv.SessionCount(); got != 0 {
		t.Fatalf("session count = %d: a one-shot session entered the pool", got)
	}
}

// TestStreamFrameOfAnyLength is the regression test for the client's 16 MiB
// frame cap: one rows frame far larger than that (and larger than every
// buffer involved) arrives whole.
func TestStreamFrameOfAnyLength(t *testing.T) {
	cell := strings.Repeat("x", 1<<20)
	rows := make([]types.Row, 20)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(cell)}
	}
	h := newHarness(t, func(c *Config) {
		base := c.NewSession
		c.NewSession = func(user string) Session {
			ss := base(user).(*stubSession)
			ss.exec = func(string) (*Result, error) {
				return &Result{Columns: []string{"N", "BLOB"}, Rows: rows, Routed: "STUB"}, nil
			}
			return ss
		}
	})
	var frames, got int
	res, err := h.client.QueryStream("SELECT n, blob FROM t", len(rows), func(chunk [][]string) error {
		frames++
		for _, row := range chunk {
			if row[0] != strconv.Itoa(got) || row[1] != cell {
				return fmt.Errorf("row %d arrived damaged", got)
			}
			got++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 1 || got != len(rows) || res.Routed != "STUB" {
		t.Fatalf("%d frames, %d rows, routed %q; want one %d-row frame", frames, got, res.Routed, len(rows))
	}
	// The same result buffered: the body announces its length up front.
	buffered, err := h.client.Query("SELECT n, blob FROM t")
	if err != nil || len(buffered.Rows) != len(rows) || buffered.Rows[19][1] != cell {
		t.Fatalf("buffered read of the same result: %d rows, err %v", len(buffered.Rows), err)
	}
	resp, err := http.Post("http://"+h.srv.Addr()+"/v1/query", "application/json", strings.NewReader(`{"sql":"SELECT n, blob FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength < int64(len(rows)*len(cell)) {
		t.Fatalf("Content-Length = %d on a buffered response of more than %d bytes", resp.ContentLength, len(rows)*len(cell))
	}
}

func TestUnknownSession(t *testing.T) {
	h := newHarness(t, nil)
	h.client.session = "deadbeef"
	_, err := h.client.Query("SELECT 1")
	se, ok := err.(*ServerError)
	if !ok || se.Status != http.StatusNotFound || se.Code != CodeUnknownSession {
		t.Fatalf("err = %v, want 404 unknown_session", err)
	}
}

func TestMethodAndBodyValidation(t *testing.T) {
	h := newHarness(t, nil)
	base := "http://" + h.srv.Addr()
	resp, err := http.Get(base + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/query", "application/json", strings.NewReader(`{"sql":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/query", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d, want 400", resp.StatusCode)
	}
	// Unknown priority header is rejected, not silently defaulted.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(`{"sql":"SELECT 1"}`))
	req.Header.Set(PriorityHeader, "bulk")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority = %d, want 400", resp.StatusCode)
	}
}

// TestAdmissionShed429 proves a full admission queue surfaces as HTTP 429
// with the queue_full code and a Retry-After header.
func TestAdmissionShed429(t *testing.T) {
	block := make(chan struct{})
	h := newHarness(t, func(c *Config) {
		c.Admission = admission.New(admission.Config{Slots: 1, MaxQueue: 1})
		base := c.NewSession
		c.NewSession = func(user string) Session {
			ss := base(user).(*stubSession)
			ss.block = block
			return ss
		}
	})
	// Occupy the slot...
	done := make(chan error, 1)
	go func() {
		_, err := h.client.Query("SELECT slow")
		done <- err
	}()
	waitFor(t, func() bool { return h.srv.cfg.Admission.Inflight() == 1 })
	// ...queue one...
	queued := make(chan error, 1)
	go func() {
		_, err := h.client.Query("SELECT queued")
		queued <- err
	}()
	waitFor(t, func() bool { return h.srv.cfg.Admission.Queued(admission.Interactive) == 1 })
	// ...and the third is shed.
	_, err := h.client.Query("SELECT shed")
	if !IsShed(err) {
		t.Fatalf("err = %v, want 429 shed", err)
	}
	se := err.(*ServerError)
	if se.Code != CodeQueueFull {
		t.Fatalf("code = %q, want %q", se.Code, CodeQueueFull)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
}

// TestPriorityHeaderClassing proves the header routes requests to the right
// admission class.
func TestPriorityHeaderClassing(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarness(t, func(c *Config) {
		c.Admission = admission.New(admission.Config{Slots: 2, MaxQueue: 4, Obs: reg})
	})
	h.client.SetPriority("batch")
	if _, err := h.client.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["admission_admitted_batch"] != 1 {
		t.Fatalf("batch admitted = %d, want 1", snap.Counters["admission_admitted_batch"])
	}
}

// TestIdleReap proves the pool rolls back and drops sessions idle past the
// timeout, and a later request on the reaped token gets 404.
func TestIdleReap(t *testing.T) {
	events := eventlog.New(16)
	h := newHarness(t, func(c *Config) {
		c.IdleTimeout = 40 * time.Millisecond
		c.Events = events
	})
	if err := h.client.OpenSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	ss := h.sessions[0]
	h.mu.Unlock()
	waitFor(t, func() bool { return h.srv.SessionCount() == 0 })
	ss.mu.Lock()
	rolled := ss.rolled
	ss.mu.Unlock()
	if rolled != 1 {
		t.Fatalf("reap rolled back %d times, want 1", rolled)
	}
	_, err := h.client.Query("SELECT 1")
	se, ok := err.(*ServerError)
	if !ok || se.Status != http.StatusNotFound {
		t.Fatalf("post-reap err = %v, want 404", err)
	}
	if evs := events.Recent(0, eventlog.Filter{Type: eventlog.TypeSessionReaped}); len(evs) != 1 {
		t.Fatalf("reap events = %d, want 1", len(evs))
	}
}

// TestDrain proves Close waits for in-flight statements, rejects new ones
// with 503, and rolls back pooled sessions left in a transaction.
func TestDrain(t *testing.T) {
	block := make(chan struct{})
	h := newHarness(t, func(c *Config) {
		c.DrainTimeout = 5 * time.Second
		base := c.NewSession
		c.NewSession = func(user string) Session {
			ss := base(user).(*stubSession)
			ss.block = block
			return ss
		}
	})
	// A pooled session with an open transaction (BEGIN blocks on `block`, so
	// open it via the stub directly).
	if err := h.client.OpenSession(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.sessions[0].inTxn = true
	h.mu.Unlock()

	inflight := make(chan error, 1)
	go func() {
		_, err := h.client.Query("SELECT inflight")
		inflight <- err
	}()
	waitFor(t, func() bool { return h.srv.nInfl.Load() >= 1 })

	closed := make(chan error, 1)
	go func() { closed <- h.srv.Close() }()
	waitFor(t, func() bool { return h.srv.Draining() })

	// New work is rejected while draining.
	_, err := h.client.Query("SELECT rejected")
	se, ok := err.(*ServerError)
	if !ok || se.Status != http.StatusServiceUnavailable || se.Code != CodeDraining {
		t.Fatalf("err during drain = %v, want 503 draining", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a statement was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(block) // let the in-flight statement finish
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight statement failed: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ss := range h.sessions {
		if ss.InTransaction() {
			t.Fatal("pooled session left in transaction after drain")
		}
	}
}

// TestCloseRacingNewWork opens sessions and runs one-shot statements from
// many goroutines while Close runs: no session may be opened after Close
// returned, and every session opened must be released — a pooled session
// slipping in after Close took the pool would never be rolled back. Every
// fourth iteration the drain times out at once, so Close takes the pool while
// handlers still run; sessions must still all be released.
func TestCloseRacingNewWork(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		var opened, released, late, reading atomic.Int64
		var closed atomic.Bool
		var drainTimeout time.Duration
		if iter%4 == 3 {
			drainTimeout = time.Nanosecond
		}
		srv := NewServer(Config{
			DrainTimeout: drainTimeout,
			NewSession: func(user string) Session {
				if closed.Load() {
					late.Add(1)
				}
				opened.Add(1)
				return &stubSession{user: user}
			},
			CloseSession: func(Session) { released.Add(1) },
			IdleTimeout:  -1,
		})
		h := srv.Handler()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; !closed.Load(); i++ {
					// Statements in even iterations, a mix in odd ones: a
					// drain with nothing yet counted in flight is the case
					// the statement path must get right on its own.
					path, body := "/v1/query", `{"sql":"SELECT 1"}`
					if iter%2 == 1 && (g+i)%2 == 0 {
						path, body = "/v1/sessions", `{}`
					}
					gated := drainGatedBody{strings.NewReader(body), srv, &reading}
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, gated))
				}
			}(g)
		}
		// Close starts while every goroutine is mid-request.
		for reading.Load() < 8 {
			runtime.Gosched()
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		wg.Wait()
		if n := late.Load(); n > 0 && drainTimeout == 0 {
			t.Fatalf("iteration %d: %d session(s) opened after Close returned", iter, n)
		}
		if o, r := opened.Load(), released.Load(); o != r {
			t.Fatalf("iteration %d: %d sessions opened, %d released", iter, o, r)
		}
	}
}

// drainGatedBody is a request body that cannot be read before the server
// starts draining: the handler reading it is mid-request when Close begins.
type drainGatedBody struct {
	r       io.Reader
	srv     *Server
	reading *atomic.Int64
}

func (b drainGatedBody) Read(p []byte) (int, error) {
	b.reading.Add(1)
	for !b.srv.Draining() {
		runtime.Gosched()
	}
	return b.r.Read(p)
}

// TestOpsHandlerMount proves non-/v1 paths fall through to the mounted ops
// handler.
func TestOpsHandlerMount(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.OpsHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ops:" + r.URL.Path))
		})
	})
	resp, err := http.Get("http://" + h.srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [64]byte
	n, _ := resp.Body.Read(buf[:])
	if got := string(buf[:n]); got != "ops:/metrics" {
		t.Fatalf("ops mount served %q", got)
	}
}

// TestQueueWaitForwarded proves the server forwards admission queue time to
// sessions that accept it.
func TestQueueWaitForwarded(t *testing.T) {
	var noted atomic.Int64
	block := make(chan struct{})
	h := newHarness(t, func(c *Config) {
		c.Admission = admission.New(admission.Config{Slots: 1, MaxQueue: 4})
		base := c.NewSession
		c.NewSession = func(user string) Session {
			ss := base(user).(*stubSession)
			ss.block = block
			return &queueWaitStub{stubSession: ss, noted: &noted}
		}
	})
	first := make(chan error, 1)
	go func() {
		_, err := h.client.Query("SELECT hold")
		first <- err
	}()
	waitFor(t, func() bool { return h.srv.cfg.Admission.Inflight() == 1 })
	second := make(chan error, 1)
	go func() {
		_, err := h.client.Query("SELECT waited")
		second <- err
	}()
	waitFor(t, func() bool { return h.srv.cfg.Admission.Queued(admission.Interactive) == 1 })
	time.Sleep(10 * time.Millisecond) // accumulate measurable queue time
	close(block)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if noted.Load() <= 0 {
		t.Fatal("queue wait was not forwarded to the session")
	}
}

type queueWaitStub struct {
	*stubSession
	noted *atomic.Int64
}

func (q *queueWaitStub) NoteQueueWait(d time.Duration) { q.noted.Add(int64(d)) }

// TestClientJSONShapes pins the exact JSON field names of the protocol (the
// contract documented in docs/WIRE_PROTOCOL.md).
func TestClientJSONShapes(t *testing.T) {
	h := newHarness(t, nil)
	resp, err := http.Post("http://"+h.srv.Addr()+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"columns", "rows", "routed", "queued_ms", "elapsed_ms"} {
		if _, ok := body[key]; !ok {
			t.Errorf("response missing %q field: %v", key, body)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for {
		if cond() {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatal("condition never became true")
		case <-time.After(time.Millisecond):
		}
	}
}
