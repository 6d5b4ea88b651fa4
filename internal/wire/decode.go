package wire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the client-side response decoder, the mirror image of
// encode.go: one pass over a response body (or one NDJSON line) held as a
// string, with every column name and cell a substring of it unless it
// contains an escape, all of them carved out of one flat []string. It accepts
// exactly the documents json.Unmarshal accepts into statementResponse and
// Frame and produces the same value — unknown fields skipped, field names
// matched case-insensitively, nulls, escapes, surrogate pairs and invalid
// UTF-8 handled identically — with one deliberate exception: a field that
// occurs twice is rejected (errDuplicateField) where encoding/json would
// merge the second occurrence into whatever the first left behind. The
// differential tests and fuzzers in codec_test.go hold the two together.

var errDuplicateField = errors.New("wire: duplicate field in response")

// maxDepth is encoding/json's nesting limit, kept so hostile nesting in an
// unknown field is rejected the same way.
const maxDepth = 10000

// The fields of Frame; statementResponse has all but type and error.
const (
	fType = iota
	fColumns
	fRows
	fRowsAffected
	fRouted
	fMessage
	fQueuedMS
	fElapsedMS
	fError
)

var fieldNames = [...]string{"type", "columns", "rows", "rows_affected", "routed", "message", "queued_ms", "elapsed_ms", "error"}

// decodeStatementResponse parses a buffered statement response body.
func decodeStatementResponse(s string) (statementResponse, error) {
	f, err := decodeObject(s, false)
	return statementResponse{
		Columns:      f.Columns,
		Rows:         f.Rows,
		RowsAffected: f.RowsAffected,
		Routed:       f.Routed,
		Message:      f.Message,
		QueuedMS:     f.QueuedMS,
		ElapsedMS:    f.ElapsedMS,
	}, err
}

// decodeFrame parses one line of a streamed response.
func decodeFrame(s string) (Frame, error) { return decodeObject(s, true) }

type decoder struct {
	s   string
	pos int
	// flat backs every []string of the result; it is sized once, from an
	// upper bound on the string literals left in the input, so the slices
	// carved out of it never move.
	flat []string
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: bad response at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.s) {
		switch d.s[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at end of input).
func (d *decoder) peek() byte {
	d.skipSpace()
	if d.pos < len(d.s) {
		return d.s[d.pos]
	}
	return 0
}

// literal consumes the given keyword if the input continues with it.
func (d *decoder) literal(word string) bool {
	if strings.HasPrefix(d.s[d.pos:], word) {
		d.pos += len(word)
		return true
	}
	return false
}

// decodeObject parses s into a Frame. With frame false the type and error
// fields are unknown names, as they are for statementResponse.
func decodeObject(s string, frame bool) (Frame, error) {
	d := decoder{s: s}
	var f Frame
	switch d.peek() {
	case '{':
		d.pos++
	case 'n':
		if !d.literal("null") {
			return Frame{}, d.errorf("invalid literal")
		}
		return f, d.end()
	default:
		return Frame{}, d.errorf("want a JSON object")
	}
	var seen uint
	for first := true; ; first = false {
		c := d.peek()
		if c == '}' && first {
			d.pos++
			break
		}
		if c != '"' {
			return Frame{}, d.errorf("want a field name")
		}
		name, err := d.str()
		if err != nil {
			return Frame{}, err
		}
		if d.peek() != ':' {
			return Frame{}, d.errorf("want ':' after field name")
		}
		d.pos++
		field := lookupField(name, frame)
		if field >= 0 {
			if seen&(1<<field) != 0 {
				return Frame{}, errDuplicateField
			}
			seen |= 1 << field
		}
		d.skipSpace()
		if err := d.field(&f, field); err != nil {
			return Frame{}, err
		}
		c = d.peek()
		d.pos++
		if c == '}' {
			break
		}
		if c != ',' {
			d.pos--
			return Frame{}, d.errorf("want ',' or '}' after field value")
		}
	}
	return f, d.end()
}

// end checks that only whitespace follows the document.
func (d *decoder) end() error {
	if d.peek() != 0 || d.pos < len(d.s) {
		return d.errorf("data after the top-level value")
	}
	return nil
}

// lookupField maps a field name to its index the way encoding/json does:
// exact match, else case-insensitive under Unicode simple folding.
func lookupField(name string, frame bool) int {
	for i, n := range fieldNames {
		if (name == n || strings.EqualFold(name, n)) && (frame || (i != fType && i != fError)) {
			return i
		}
	}
	return -1
}

// field decodes the value at the cursor into the given field of f (or skips
// it when field is -1). A null leaves scalars untouched and slices nil, as in
// encoding/json.
func (d *decoder) field(f *Frame, field int) error {
	if field < 0 {
		return d.skipValue(1)
	}
	if d.literal("null") {
		return nil
	}
	var err error
	switch field {
	case fType:
		f.Type, err = d.str()
	case fRouted:
		f.Routed, err = d.str()
	case fMessage:
		f.Message, err = d.str()
	case fError:
		f.Error, err = d.str()
	case fColumns:
		f.Columns, err = d.strs()
	case fRows:
		f.Rows, err = d.rows()
	case fRowsAffected:
		var tok string
		if tok, err = d.number(); err == nil {
			if f.RowsAffected, err = strconv.Atoi(tok); err != nil {
				err = d.errorf("rows_affected: %v", err)
			}
		}
	case fQueuedMS:
		f.QueuedMS, err = d.float()
	case fElapsedMS:
		f.ElapsedMS, err = d.float()
	}
	return err
}

func (d *decoder) float() (float64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, d.errorf("%v", err)
	}
	return v, nil
}

// number consumes a JSON number literal and returns its text.
func (d *decoder) number() (string, error) {
	s, start := d.s, d.pos
	i := start
	digits := func() bool {
		from := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		return "", d.errorf("want a number")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return "", d.errorf("want digits after the decimal point")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return "", d.errorf("want digits in the exponent")
		}
	}
	d.pos = i
	return s[start:i], nil
}

// strs decodes an array of strings into a slice of d.flat.
func (d *decoder) strs() ([]string, error) {
	if d.pos >= len(d.s) || d.s[d.pos] != '[' {
		return nil, d.errorf("want an array of strings")
	}
	d.pos++
	if d.flat == nil {
		// Every string literal has two unescaped quotes of its own.
		d.flat = make([]string, 0, strings.Count(d.s[d.pos:], `"`)/2)
	}
	start := len(d.flat)
	for first := true; ; first = false {
		c := d.peek()
		if c == ']' && first {
			d.pos++
			break
		}
		var cell string
		if c == '"' {
			var err error
			if cell, err = d.str(); err != nil {
				return nil, err
			}
		} else if !d.literal("null") {
			return nil, d.errorf("want a string")
		}
		d.flat = append(d.flat, cell)
		c = d.peek()
		d.pos++
		if c == ']' {
			break
		}
		if c != ',' {
			d.pos--
			return nil, d.errorf("want ',' or ']' after array element")
		}
	}
	return d.flat[start:len(d.flat):len(d.flat)], nil
}

// rows decodes an array of string arrays.
func (d *decoder) rows() ([][]string, error) {
	if d.pos >= len(d.s) || d.s[d.pos] != '[' {
		return nil, d.errorf("want an array of rows")
	}
	d.pos++
	rows := [][]string{}
	for first := true; ; first = false {
		c := d.peek()
		if c == ']' && first {
			d.pos++
			break
		}
		var row []string
		if c == '[' {
			var err error
			if row, err = d.strs(); err != nil {
				return nil, err
			}
		} else if !d.literal("null") {
			return nil, d.errorf("want a row")
		}
		if first && len(row) > 0 {
			// Rows of a result set are equally wide: size the outer slice
			// from the strings that can still follow.
			rows = make([][]string, 0, (cap(d.flat)-len(d.flat))/len(row)+1)
		}
		rows = append(rows, row)
		c = d.peek()
		d.pos++
		if c == ']' {
			break
		}
		if c != ',' {
			d.pos--
			return nil, d.errorf("want ',' or ']' after row")
		}
	}
	return rows, nil
}

// str decodes the string literal at the cursor. Without escapes and with
// valid UTF-8 the result is a substring of the input.
func (d *decoder) str() (string, error) {
	s := d.s
	if d.pos >= len(s) || s[d.pos] != '"' {
		return "", d.errorf("want a string")
	}
	start := d.pos + 1
	ascii := true
	for i := start; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			d.pos = i + 1
			if ascii || utf8.ValidString(s[start:i]) {
				return s[start:i], nil
			}
			return d.unescape(start, start) // replaces each invalid byte
		case c == '\\':
			if !ascii {
				i = start // the prefix may need its invalid bytes replaced too
			}
			return d.unescape(start, i)
		case c < ' ':
			d.pos = i
			return "", d.errorf("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(s)
	return "", d.errorf("unterminated string")
}

// unescape is str's slow path: the literal opened at start is plain ASCII up
// to esc, and is decoded byte by byte from there.
func (d *decoder) unescape(start, esc int) (string, error) {
	s := d.s
	buf := make([]byte, 0, 2*(esc-start)+16)
	buf = append(buf, s[start:esc]...)
	i := esc
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.pos = i + 1
			return string(buf), nil
		case c < ' ':
			d.pos = i
			return "", d.errorf("control character in string")
		case c == '\\':
			if i+1 >= len(s) {
				d.pos = len(s)
				return "", d.errorf("unterminated string")
			}
			i += 2
			switch s[i-1] {
			case '"', '\\', '/':
				buf = append(buf, s[i-1])
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(s[i:])
				if r < 0 {
					d.pos = i
					return "", d.errorf(`want four hex digits after \u`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair combines; a lone half becomes U+FFFD and
					// whatever follows it is decoded on its own.
					r2 := rune(-1)
					if strings.HasPrefix(s[i:], `\u`) {
						r2 = hex4(s[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				d.pos = i - 1
				return "", d.errorf("invalid escape in string")
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			buf = utf8.AppendRune(buf, r) // invalid bytes become U+FFFD
			i += size
		}
	}
	d.pos = len(s)
	return "", d.errorf("unterminated string")
}

// hex4 decodes four hex digits at the start of s (-1 when there are none).
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipValue validates and skips any JSON value (the value of a field this
// client does not know). depth is the nesting level of the value's parent.
func (d *decoder) skipValue(depth int) error {
	if d.pos >= len(d.s) {
		return d.errorf("want a value")
	}
	switch c := d.s[d.pos]; c {
	case '"':
		_, err := d.str()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.errorf("invalid literal")
	case '{', '[':
		if depth >= maxDepth {
			return d.errorf("exceeded max depth")
		}
		d.pos++
		closer := c + 2 // '}' and ']' follow their openers by two in ASCII
		for first := true; ; first = false {
			n := d.peek()
			if n == closer && first {
				d.pos++
				return nil
			}
			if c == '{' {
				if n != '"' {
					return d.errorf("want a field name")
				}
				if _, err := d.str(); err != nil {
					return err
				}
				if d.peek() != ':' {
					return d.errorf("want ':' after field name")
				}
				d.pos++
				d.skipSpace()
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			n = d.peek()
			d.pos++
			if n == closer {
				return nil
			}
			if n != ',' {
				d.pos--
				return d.errorf("want ',' or a closing bracket")
			}
		}
	default:
		_, err := d.number()
		return err
	}
}
