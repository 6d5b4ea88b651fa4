// Package types defines the value model shared by the DB2 row engine and the
// accelerator columnar engine: SQL values, column kinds, rows and schemas.
//
// Values are represented as a small tagged struct rather than interface{} so
// that large intermediate results (the accelerator routinely materialises
// millions of rows) do not incur one heap allocation per datum.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the column types supported by the engines. The set mirrors
// the types the paper's workloads need: numeric measures, categorical strings,
// booleans and timestamps.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL literal before coercion.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (DB2 BIGINT/INTEGER/SMALLINT).
	KindInt
	// KindFloat is a 64-bit IEEE float (DB2 DOUBLE/DECFLOAT approximation).
	KindFloat
	// KindString is a variable-length character string (VARCHAR).
	KindString
	// KindBool is a boolean (DB2 BOOLEAN).
	KindBool
	// KindTimestamp is a timestamp stored as microseconds since the Unix epoch.
	KindTimestamp
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTimestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name into a Kind. It accepts the common DB2
// spellings so that schemas written for the real product parse unchanged.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "DECFLOAT", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "CLOB", "GRAPHIC", "VARGRAPHIC":
		return KindString, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	case "TIMESTAMP", "DATE", "TIME", "DATETIME":
		return KindTimestamp, nil
	default:
		return KindNull, fmt.Errorf("types: unknown column type %q", name)
	}
}

// Value is a single SQL datum. The Kind field selects which payload field is
// meaningful; KindNull ignores all payloads. Timestamps reuse the Int payload
// (microseconds since epoch).
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// NewTimestamp returns a timestamp value from a time.Time (truncated to µs).
func NewTimestamp(t time.Time) Value {
	return Value{Kind: KindTimestamp, Int: t.UnixMicro()}
}

// NewTimestampMicros returns a timestamp value from raw microseconds.
func NewTimestampMicros(us int64) Value {
	return Value{Kind: KindTimestamp, Int: us}
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Time returns the timestamp payload as a time.Time. It is only meaningful
// for KindTimestamp values.
func (v Value) Time() time.Time { return time.UnixMicro(v.Int).UTC() }

// AsFloat coerces a numeric or boolean value to float64. The second return
// value is false when the value is NULL or not numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt, KindTimestamp:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsInt coerces a numeric value to int64; floats are truncated toward zero.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt, KindTimestamp:
		return v.Int, true
	case KindFloat:
		return int64(v.Float), true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
			if ferr != nil {
				return 0, false
			}
			return int64(f), true
		}
		return i, true
	default:
		return 0, false
	}
}

// AsBool coerces the value to a boolean using SQL-ish truthiness.
func (v Value) AsBool() (bool, bool) {
	switch v.Kind {
	case KindBool:
		return v.Bool, true
	case KindInt:
		return v.Int != 0, true
	case KindFloat:
		return v.Float != 0, true
	case KindString:
		switch strings.ToLower(strings.TrimSpace(v.Str)) {
		case "true", "t", "yes", "y", "1":
			return true, true
		case "false", "f", "no", "n", "0":
			return false, true
		}
		return false, false
	default:
		return false, false
	}
}

// timestampLayout is how timestamps render (and the first layout they parse
// from): microsecond precision, UTC, no zone suffix.
const timestampLayout = "2006-01-02 15:04:05.000000"

// AppendText appends the value's display rendering to dst and returns the
// extended buffer. It is the single rendering implementation — String,
// AsString, the embedded API's result cells and the wire encoder all produce
// exactly these bytes: NULL as the literal NULL, integers in base 10, floats
// in the shortest form that round-trips (strconv 'g', -1: 0.14, 1e+06, NaN, +Inf),
// strings verbatim, booleans as true/false, timestamps as
// "2006-01-02 15:04:05.000000" in UTC.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.Float, 'g', -1, 64)
	case KindString:
		return append(dst, v.Str...)
	case KindBool:
		return strconv.AppendBool(dst, v.Bool)
	case KindTimestamp:
		return v.Time().AppendFormat(dst, timestampLayout)
	default:
		return fmt.Appendf(dst, "<%v>", v.Kind)
	}
}

// AsString renders the value as a string without SQL quoting. NULL renders as
// the empty string; use String for display purposes.
func (v Value) AsString() string {
	if v.Kind == KindNull {
		return ""
	}
	return v.String()
}

// String implements fmt.Stringer for diagnostics and result rendering (see
// AppendText for the format).
func (v Value) String() string {
	if v.Kind == KindString {
		return v.Str
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// Cast converts the value to the target kind, returning an error when the
// conversion is not meaningful. NULL casts to NULL of any kind.
func (v Value) Cast(to Kind) (Value, error) {
	if v.Kind == KindNull {
		return Null(), nil
	}
	if v.Kind == to {
		return v, nil
	}
	switch to {
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return NewInt(i), nil
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.AsString()), nil
	case KindBool:
		if b, ok := v.AsBool(); ok {
			return NewBool(b), nil
		}
	case KindTimestamp:
		switch v.Kind {
		case KindInt:
			return NewTimestampMicros(v.Int), nil
		case KindString:
			t, err := ParseTimestamp(v.Str)
			if err != nil {
				return Null(), err
			}
			return NewTimestamp(t), nil
		}
	}
	return Null(), fmt.Errorf("types: cannot cast %s value %q to %s", v.Kind, v.AsString(), to)
}

// ParseTimestamp parses the timestamp formats accepted by the loader and the
// CAST function.
func ParseTimestamp(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	layouts := []string{
		timestampLayout,
		"2006-01-02 15:04:05",
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02",
	}
	for _, l := range layouts {
		if t, err := time.Parse(l, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("types: unrecognised timestamp %q", s)
}

// Compare orders two values. NULL sorts before every non-NULL value (and
// equals NULL) which matches the ORDER BY semantics we implement. Numeric
// kinds compare numerically across Int/Float; other cross-kind comparisons are
// an error.
func Compare(a, b Value) (int, error) {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == KindNull && b.Kind == KindNull:
			return 0, nil
		case a.Kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.Str, b.Str), nil
	case KindBool:
		switch {
		case a.Bool == b.Bool:
			return 0, nil
		case !a.Bool:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("types: cannot compare kind %s", a.Kind)
	}
}

func isNumeric(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindTimestamp
}

// Equal reports whether two values compare equal under Compare. Values of
// incomparable kinds are never equal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Hash returns a stable hash of the value, used by the statistics sketches
// and the accelerator's distribution-key partitioning. It is FNV-1a 64 over
// the value's encoding, computed inline so that hashing allocates nothing;
// the output places durable data, so it must not change.
func (v Value) Hash() uint64 {
	switch v.Kind {
	case KindNull:
		return fnvByte(fnvOffset64, 0)
	case KindInt, KindTimestamp:
		return fnvUint64(fnvOffset64, uint64(v.Int))
	case KindFloat:
		// Hash integral floats identically to ints so numeric group keys agree.
		if v.Float == math.Trunc(v.Float) && !math.IsInf(v.Float, 0) {
			return fnvUint64(fnvOffset64, uint64(int64(v.Float)))
		}
		return fnvUint64(fnvOffset64, math.Float64bits(v.Float))
	case KindString:
		h := uint64(fnvOffset64)
		for i := 0; i < len(v.Str); i++ {
			h = fnvByte(h, v.Str[i])
		}
		return h
	case KindBool:
		if v.Bool {
			return fnvByte(fnvOffset64, 2)
		}
		return fnvByte(fnvOffset64, 1)
	}
	return fnvOffset64
}

// FNV-1a 64 parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 feeds u's eight bytes, least significant first.
func fnvUint64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*uint(i))))
	}
	return h
}

// GroupKey returns a string usable as a map key for GROUP BY and DISTINCT.
// Distinct values map to distinct keys within a query's lifetime.
func (v Value) GroupKey() string {
	return string(v.AppendGroupKey(nil))
}

// AppendGroupKey appends the GroupKey encoding to dst and returns the
// extended buffer. Hot grouping loops reuse one buffer across rows instead of
// concatenating per-value strings (the buffer escapes into the group map only
// when a new group is first seen).
func (v Value) AppendGroupKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 0x00, 'N')
	case KindInt:
		return strconv.AppendInt(append(dst, 0x01), v.Int, 10)
	case KindTimestamp:
		return strconv.AppendInt(append(dst, 0x05), v.Int, 10)
	case KindFloat:
		if v.Float == math.Trunc(v.Float) && !math.IsInf(v.Float, 0) {
			return strconv.AppendInt(append(dst, 0x01), int64(v.Float), 10)
		}
		return strconv.AppendFloat(append(dst, 0x02), v.Float, 'b', -1, 64)
	case KindString:
		return append(append(dst, 0x03), v.Str...)
	case KindBool:
		if v.Bool {
			return append(dst, 0x04, 'T')
		}
		return append(dst, 0x04, 'F')
	default:
		return append(dst, 0x00, '?')
	}
}
