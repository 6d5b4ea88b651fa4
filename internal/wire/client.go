package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ServerError is a non-2xx response from the wire server, carrying the HTTP
// status and the machine-readable code (CodeQueueFull for admission sheds).
type ServerError struct {
	Status  int
	Code    string
	Message string
}

// Error renders the server error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("wire: server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// IsShed reports whether the error is an admission shed (HTTP 429) — the
// client should back off and retry.
func IsShed(err error) bool {
	se, ok := err.(*ServerError)
	return ok && se.Status == http.StatusTooManyRequests
}

// ClientResult is a statement outcome as seen by a client, including the
// serving-layer timings the server reports.
type ClientResult struct {
	Columns      []string
	Rows         [][]string
	RowsAffected int
	Routed       string
	Message      string
	// QueuedMS is how long the statement waited for an admission slot.
	QueuedMS float64
	// ElapsedMS is the server-side execution time once admitted.
	ElapsedMS float64
}

// Client speaks the /v1 wire protocol. A zero-session client runs every
// statement on a server-side one-shot session; OpenSession pins a pooled
// server session so explicit transactions span requests. Client is safe for
// concurrent use only without a pinned session (a pooled session serialises
// server-side anyway, but shares one token).
type Client struct {
	base     string
	http     *http.Client
	user     string
	priority string
	session  string
}

// NewClient builds a client for addr ("host:port" or a full http:// URL).
// The optional httpClient lets callers share a tuned Transport (the 1k-client
// bench does); nil uses a private default.
func NewClient(addr string, httpClient *http.Client) *Client {
	base := addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 60 * time.Second}
	}
	return &Client{base: base, http: httpClient}
}

// SetPriority sets the priority class sent with every request ("interactive"
// or "batch"; "" = server default).
func (c *Client) SetPriority(p string) { c.priority = p }

// SetUser sets the authorization id for one-shot statements and OpenSession.
func (c *Client) SetUser(u string) { c.user = u }

// Session returns the pinned session token ("" when none).
func (c *Client) Session() string { return c.session }

// OpenSession opens a pooled server session; subsequent Exec/Query calls run
// on it, so BEGIN/COMMIT span requests and the priority class sticks.
func (c *Client) OpenSession() error {
	body, err := c.post("/v1/sessions", openSessionRequest{User: c.user, Priority: c.priority}, nil)
	if err != nil {
		return err
	}
	var resp openSessionResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		return fmt.Errorf("wire: bad session response: %w", err)
	}
	c.session = resp.Session
	return nil
}

// CloseSession releases the pinned session (no-op without one).
func (c *Client) CloseSession() error {
	if c.session == "" {
		return nil
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/"+c.session, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.session = ""
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

// Exec runs one statement through POST /v1/exec.
func (c *Client) Exec(sql string) (*ClientResult, error) {
	return c.statement("/v1/exec", sql)
}

// Query runs one statement through POST /v1/query (buffered response).
func (c *Client) Query(sql string) (*ClientResult, error) {
	return c.statement("/v1/query", sql)
}

// QueryStream runs one statement with the NDJSON framing, invoking fn for
// every row chunk as it arrives. The returned result carries the columns and
// the done-frame fields but no rows.
func (c *Client) QueryStream(sql string, chunkRows int, fn func(rows [][]string) error) (*ClientResult, error) {
	reqBody := statementRequest{SQL: sql, Session: c.session, User: c.user, Stream: true, ChunkRows: chunkRows}
	raw, _ := json.Marshal(reqBody)
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/query", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.priority != "" {
		req.Header.Set(PriorityHeader, c.priority)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	out := &ClientResult{}
	bp := getBuf()
	lines := lineReader{r: resp.Body, buf: (*bp)[:cap(*bp)]}
	defer func() { putBuf(bp, lines.buf) }()
	for {
		line, err := lines.next()
		if err == io.EOF {
			return nil, fmt.Errorf("wire: stream ended without a done frame")
		}
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// One copy per frame: the decoded rows are substrings of it, so they
		// stay valid after the read buffer moves on.
		f, err := decodeFrame(string(line))
		if err != nil {
			return nil, fmt.Errorf("wire: bad frame: %w", err)
		}
		switch f.Type {
		case "columns":
			out.Columns = f.Columns
		case "rows":
			if fn != nil {
				if err := fn(f.Rows); err != nil {
					return nil, err
				}
			}
		case "done":
			out.RowsAffected = f.RowsAffected
			out.Routed = f.Routed
			out.Message = f.Message
			out.QueuedMS = f.QueuedMS
			out.ElapsedMS = f.ElapsedMS
			return out, nil
		case "error":
			return nil, fmt.Errorf("wire: %s", f.Error)
		default:
			return nil, fmt.Errorf("wire: unknown frame type %q", f.Type)
		}
	}
}

// lineReader yields the newline-terminated lines of r, of any length, out of
// one reused buffer. A line is valid until the next call.
type lineReader struct {
	r   io.Reader
	buf []byte
	// buf[start:end] is read but not yet returned; its first scanned bytes
	// are known to hold no newline.
	start, end, scanned int
	err                 error
}

// next returns the next line without its terminator; an unterminated last
// line is returned too. After the last line it returns io.EOF.
func (l *lineReader) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(l.buf[l.start+l.scanned:l.end], '\n'); i >= 0 {
			line := l.buf[l.start : l.start+l.scanned+i]
			l.start += l.scanned + i + 1
			l.scanned = 0
			return line, nil
		}
		l.scanned = l.end - l.start
		if l.err != nil {
			line := l.buf[l.start:l.end]
			l.start, l.scanned = l.end, 0
			if len(line) > 0 && l.err == io.EOF {
				return line, nil
			}
			return nil, l.err
		}
		if l.start > 0 { // make room: move the partial line to the front
			l.end = copy(l.buf, l.buf[l.start:l.end])
			l.start = 0
		}
		if l.end == len(l.buf) { // the line outgrew the buffer
			grown := make([]byte, max(2*len(l.buf), 32<<10))
			copy(grown, l.buf[:l.end])
			l.buf = grown
		}
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		l.err = err
	}
}

// Health fetches the mounted ops /healthz report (any JSON shape).
func (c *Client) Health() (json.RawMessage, int, error) {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return buf.Bytes(), resp.StatusCode, nil
}

// Events fetches the n most recent journal events from the mounted ops
// /events endpoint.
func (c *Client) Events(n int) (json.RawMessage, error) {
	resp, err := c.http.Get(fmt.Sprintf("%s/events?n=%d", c.base, n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// statement posts a statementRequest and decodes the buffered response.
func (c *Client) statement(path, sql string) (*ClientResult, error) {
	body, err := c.post(path, statementRequest{SQL: sql, Session: c.session, User: c.user}, nil)
	if err != nil {
		return nil, err
	}
	resp, err := decodeStatementResponse(body)
	if err != nil {
		return nil, fmt.Errorf("wire: bad response: %w", err)
	}
	return &ClientResult{
		Columns:      resp.Columns,
		Rows:         resp.Rows,
		RowsAffected: resp.RowsAffected,
		Routed:       resp.Routed,
		Message:      resp.Message,
		QueuedMS:     resp.QueuedMS,
		ElapsedMS:    resp.ElapsedMS,
	}, nil
}

// post sends a JSON body and returns the 200 response body.
func (c *Client) post(path string, v any, hdr http.Header) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.priority != "" {
		req.Header.Set(PriorityHeader, c.priority)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	return readBody(resp)
}

// maxPresizedBody caps how much readBody reserves on the word of a
// Content-Length header; longer bodies grow as they arrive.
const maxPresizedBody = 256 << 20

// readBody reads a response body into one string through a pooled buffer,
// sized up front when the server sent a Content-Length. The decoded result
// is made of substrings of that string, so it is the only copy.
func readBody(resp *http.Response) (string, error) {
	bp := getBuf()
	buf := *bp
	defer func() { putBuf(bp, buf) }()
	if n := resp.ContentLength; n >= int64(cap(buf)) {
		// +1: room to see EOF without growing. The bound keeps a lying
		// header from reserving more than a plausible body.
		buf = make([]byte, 0, min(n, maxPresizedBody)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return string(buf), nil
		}
		if err != nil {
			return "", err
		}
	}
}

// decodeError turns a non-2xx response into a *ServerError.
func decodeError(resp *http.Response) error {
	var eb errorBody
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if err := json.Unmarshal(buf.Bytes(), &eb); err != nil || eb.Error == "" {
		eb.Error = strings.TrimSpace(buf.String())
		if eb.Error == "" {
			eb.Error = resp.Status
		}
	}
	return &ServerError{Status: resp.StatusCode, Code: eb.Code, Message: eb.Error}
}
