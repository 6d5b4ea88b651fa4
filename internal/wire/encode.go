package wire

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"idaax/internal/types"
)

// This file is the response encoder: statement results go from typed rows to
// JSON bytes in one pass, appended to a pooled buffer. The output is
// byte-for-byte what encoding/json's Encoder (HTML escaping on) writes for the
// statementResponse and Frame shapes in protocol.go — field order, omitempty,
// string escaping, float formatting and the trailing newline included; the
// differential tests in codec_test.go hold the two together.

// bufPool recycles the byte buffers responses are rendered into and response
// bodies are read into.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps one huge result from pinning its buffer for the life of
// the process.
const maxPooledBuf = 4 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// appendStatementResponse appends the buffered response body of res.
func appendStatementResponse(dst []byte, res *Result, queuedMS, elapsedMS float64) []byte {
	dst = append(dst, '{')
	if len(res.Columns) > 0 {
		dst = appendStrings(appendKey(dst, "columns"), res.Columns)
	}
	if len(res.Rows) > 0 {
		dst = appendRows(appendKey(dst, "rows"), res.Rows)
	}
	dst = appendOutcome(dst, res)
	dst = appendFloat(appendKey(dst, "queued_ms"), queuedMS)
	dst = appendFloat(appendKey(dst, "elapsed_ms"), elapsedMS)
	return append(dst, '}', '\n')
}

// appendColumnsFrame appends the stream's opening frame.
func appendColumnsFrame(dst []byte, cols []string) []byte {
	dst = append(dst, `{"type":"columns"`...)
	if len(cols) > 0 {
		dst = appendStrings(appendKey(dst, "columns"), cols)
	}
	return append(dst, '}', '\n')
}

// appendRowsFrame appends one chunk of rows.
func appendRowsFrame(dst []byte, rows []types.Row) []byte {
	dst = append(dst, `{"type":"rows"`...)
	if len(rows) > 0 {
		dst = appendRows(appendKey(dst, "rows"), rows)
	}
	return append(dst, '}', '\n')
}

// appendDoneFrame appends the stream's terminal frame.
func appendDoneFrame(dst []byte, res *Result, queuedMS, elapsedMS float64) []byte {
	dst = append(dst, `{"type":"done"`...)
	dst = appendOutcome(dst, res)
	if queuedMS != 0 {
		dst = appendFloat(appendKey(dst, "queued_ms"), queuedMS)
	}
	if elapsedMS != 0 {
		dst = appendFloat(appendKey(dst, "elapsed_ms"), elapsedMS)
	}
	return append(dst, '}', '\n')
}

// appendOutcome appends the non-result-set fields both shapes share.
func appendOutcome(dst []byte, res *Result) []byte {
	if res.RowsAffected != 0 {
		dst = strconv.AppendInt(appendKey(dst, "rows_affected"), int64(res.RowsAffected), 10)
	}
	if res.Routed != "" {
		dst = appendString(appendKey(dst, "routed"), res.Routed)
	}
	if res.Message != "" {
		dst = appendString(appendKey(dst, "message"), res.Message)
	}
	return dst
}

// appendKey appends `"name":`, preceded by a comma unless it opens the object.
// Field names are plain ASCII and need no escaping.
func appendKey(dst []byte, name string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

func appendRows(dst []byte, rows []types.Row) []byte {
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendCell(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// appendCell renders one result value as a JSON string: the bytes of
// Value.AppendText, escaped where JSON or HTML escaping applies.
func appendCell(dst []byte, v types.Value) []byte {
	switch v.Kind {
	case types.KindString:
		return appendString(dst, v.Str)
	case types.KindNull, types.KindInt, types.KindFloat, types.KindBool, types.KindTimestamp:
		// Digits, letters and "+-.: " only: nothing either escaping touches.
		dst = append(dst, '"')
		dst = v.AppendText(dst)
		return append(dst, '"')
	default:
		return appendString(dst, string(v.AppendText(nil)))
	}
}

// jsonSafe marks the ASCII bytes a JSON string carries verbatim with HTML
// escaping on: everything printable except the quote, the backslash and
// "<", ">", "&".
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal: control characters,
// quotes, backslashes and "<", ">", "&" escaped, U+2028/U+2029 escaped,
// invalid UTF-8 replaced by an escaped U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029: // LINE / PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends a finite float as a JSON number the way encoding/json
// does (the ES6 number-to-string rules): plain decimals between 1e-6 and
// 1e21, exponent form outside, no zero-padded negative exponent.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
