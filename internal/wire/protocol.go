// Package wire is the network serving layer: a versioned HTTP/JSON protocol
// (the /v1 endpoints) over the federation's session machinery, a session pool
// with per-session transaction state, idle reaping and graceful drain, and
// admission control in front of every statement. The protocol contract is
// documented in docs/WIRE_PROTOCOL.md; this file holds the request/response
// shapes. Requests, session bodies and errors go through encoding/json;
// statement responses and stream frames are written by encode.go and read by
// decode.go, which are held byte-for-byte to what encoding/json does for the
// statementResponse and Frame definitions below.
package wire

import (
	"time"

	"idaax/internal/types"
)

// ProtocolVersion is the wire protocol's version prefix ("/v1").
const ProtocolVersion = "v1"

// PriorityHeader carries the per-request priority class ("interactive" or
// "batch"); it overrides the session's default priority for one statement.
const PriorityHeader = "X-IDAA-Priority"

// Stable machine-readable error codes (the "code" field of errorBody).
const (
	CodeBadRequest     = "bad_request"     // malformed JSON / missing sql
	CodeSQLError       = "sql_error"       // the statement itself failed
	CodeUnknownSession = "unknown_session" // token expired, reaped or never issued
	CodeQueueFull      = "queue_full"      // admission shed (HTTP 429)
	CodeDraining       = "draining"        // server is shutting down (HTTP 503)
)

// openSessionRequest is the body of POST /v1/sessions.
type openSessionRequest struct {
	// User is the authorization id the session runs as (server default when
	// empty).
	User string `json:"user,omitempty"`
	// Priority is the session's default priority class: "interactive"
	// (default) or "batch".
	Priority string `json:"priority,omitempty"`
}

// openSessionResponse is the body returned by POST /v1/sessions.
type openSessionResponse struct {
	Session  string `json:"session"`
	User     string `json:"user"`
	Priority string `json:"priority"`
}

// statementRequest is the body of POST /v1/query and POST /v1/exec.
type statementRequest struct {
	// SQL is the single statement to execute.
	SQL string `json:"sql"`
	// Session is a token from POST /v1/sessions; empty runs the statement on
	// a one-shot auto-commit session.
	Session string `json:"session,omitempty"`
	// User sets the authorization id for one-shot requests (ignored when a
	// session token is given).
	User string `json:"user,omitempty"`
	// Stream asks for the NDJSON chunked framing instead of one JSON body
	// (POST /v1/query only).
	Stream bool `json:"stream,omitempty"`
	// ChunkRows caps rows per streamed chunk (server default when <= 0).
	ChunkRows int `json:"chunk_rows,omitempty"`
}

// statementResponse is the body of a non-streamed statement: the rendered
// result set plus the serving-layer timings.
type statementResponse struct {
	Columns      []string   `json:"columns,omitempty"`
	Rows         [][]string `json:"rows,omitempty"`
	RowsAffected int        `json:"rows_affected,omitempty"`
	Routed       string     `json:"routed,omitempty"`
	Message      string     `json:"message,omitempty"`
	// QueuedMS is time spent waiting for an admission slot.
	QueuedMS float64 `json:"queued_ms"`
	// ElapsedMS is execution time once admitted.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Frame is one line of the streamed (NDJSON) response of POST /v1/query with
// "stream": true. The sequence is: one "columns" frame, zero or more "rows"
// frames, then exactly one "done" or "error" frame.
type Frame struct {
	// Type is "columns", "rows", "done" or "error".
	Type string `json:"type"`
	// Columns is set on the "columns" frame.
	Columns []string `json:"columns,omitempty"`
	// Rows is set on "rows" frames (at most chunk_rows rows each).
	Rows [][]string `json:"rows,omitempty"`
	// RowsAffected, Routed, Message, QueuedMS and ElapsedMS are set on the
	// "done" frame.
	RowsAffected int     `json:"rows_affected,omitempty"`
	Routed       string  `json:"routed,omitempty"`
	Message      string  `json:"message,omitempty"`
	QueuedMS     float64 `json:"queued_ms,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
	// Error is set on the "error" frame.
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Result is a statement outcome as the serving layer receives it: the
// engine's typed rows, untouched. The server renders each value once, straight
// into the response buffer (types.Value.AppendText: NULL as the literal
// "NULL"); the rows are read, never retained or modified.
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int
	Routed       string
	Message      string
}

// Session is what the serving layer needs from an engine session. The root
// package adapts the federation session to this interface, keeping the wire
// package free of engine imports beyond the value model. Implementations are
// not concurrency-safe; the server serialises access per pooled session.
type Session interface {
	// Exec parses and executes one SQL statement.
	Exec(sql string) (*Result, error)
	// InTransaction reports whether an explicit transaction is open.
	InTransaction() bool
	// Rollback aborts the open explicit transaction.
	Rollback() error
}

// QueueWaiter is optionally implemented by sessions that can attach the
// admission queue wait to the next statement's trace.
type QueueWaiter interface {
	NoteQueueWait(d time.Duration)
}
