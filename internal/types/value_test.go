package types

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestKindFromName(t *testing.T) {
	cases := map[string]Kind{
		"BIGINT": KindInt, "integer": KindInt, "SMALLINT": KindInt,
		"DOUBLE": KindFloat, "decimal": KindFloat,
		"VARCHAR": KindString, "char": KindString,
		"BOOLEAN": KindBool, "TIMESTAMP": KindTimestamp, "DATE": KindTimestamp,
	}
	for name, want := range cases {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("BLOB5"); err == nil {
		t.Error("expected error for unknown type name")
	}
}

func TestValueConstructorsAndCoercion(t *testing.T) {
	if v := NewInt(42); v.Kind != KindInt || v.Int != 42 {
		t.Errorf("NewInt: %+v", v)
	}
	if f, ok := NewInt(7).AsFloat(); !ok || f != 7 {
		t.Errorf("AsFloat(int) = %v, %v", f, ok)
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("AsInt(3.9) = %v, %v", i, ok)
	}
	if i, ok := NewString(" 12 ").AsInt(); !ok || i != 12 {
		t.Errorf("AsInt(' 12 ') = %v, %v", i, ok)
	}
	if b, ok := NewString("yes").AsBool(); !ok || !b {
		t.Errorf("AsBool('yes') = %v, %v", b, ok)
	}
	if _, ok := NewString("maybe").AsBool(); ok {
		t.Error("AsBool('maybe') should fail")
	}
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
	if Null().String() != "NULL" {
		t.Errorf("Null renders as %q", Null().String())
	}
}

func TestCast(t *testing.T) {
	v, err := NewString("3.5").Cast(KindFloat)
	if err != nil || v.Float != 3.5 {
		t.Fatalf("cast string->float: %v %v", v, err)
	}
	v, err = NewFloat(2.0).Cast(KindInt)
	if err != nil || v.Int != 2 {
		t.Fatalf("cast float->int: %v %v", v, err)
	}
	if _, err := NewString("abc").Cast(KindInt); err == nil {
		t.Fatal("cast 'abc'->int should fail")
	}
	n, err := Null().Cast(KindInt)
	if err != nil || !n.IsNull() {
		t.Fatalf("NULL cast should stay NULL: %v %v", n, err)
	}
	ts, err := NewString("2016-03-15 10:30:00").Cast(KindTimestamp)
	if err != nil {
		t.Fatalf("timestamp cast: %v", err)
	}
	if ts.Time().Year() != 2016 || ts.Time().Month() != time.March {
		t.Fatalf("unexpected timestamp %v", ts.Time())
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{Null(), NewInt(1), -1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("comparing string with int should fail")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, err1 := Compare(x, y)
		c2, err2 := Compare(y, x)
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualityProperty(t *testing.T) {
	// Equal values must hash identically; ints and integral floats agree for
	// ints that survive the float64 round trip.
	f := func(n int32) bool {
		v := int64(n)
		return NewInt(v).Hash() == NewFloat(float64(v)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = math.Trunc
	g := func(s string) bool {
		return NewString(s).Hash() == NewString(s).Hash()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// fnvReference is Value.Hash as it was written over hash/fnv: the inline
// FNV-1a must reproduce it bit for bit, because it places durable rows on
// shards and feeds the statistics sketches.
func fnvReference(v Value) uint64 {
	h := fnv.New64a()
	word := func(u uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(u >> (8 * uint(i)))
		}
		h.Write(buf[:])
	}
	switch v.Kind {
	case KindNull:
		h.Write([]byte{0})
	case KindInt, KindTimestamp:
		word(uint64(v.Int))
	case KindFloat:
		if v.Float == math.Trunc(v.Float) && !math.IsInf(v.Float, 0) {
			word(uint64(int64(v.Float)))
		} else {
			word(math.Float64bits(v.Float))
		}
	case KindString:
		h.Write([]byte(v.Str))
	case KindBool:
		if v.Bool {
			h.Write([]byte{2})
		} else {
			h.Write([]byte{1})
		}
	}
	return h.Sum64()
}

func TestValueHashMatchesFNV(t *testing.T) {
	values := []Value{
		Null(),
		NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewTimestamp(time.Date(2016, 3, 15, 12, 30, 0, 0, time.UTC)),
		NewFloat(0), NewFloat(42), NewFloat(-7), NewFloat(1e15),
		NewFloat(0.5), NewFloat(-3.25), NewFloat(math.Pi), NewFloat(math.SmallestNonzeroFloat64),
		NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewString(""), NewString("accelerator-only"), NewString("Zürich – 東京 🚀"),
		NewBool(true), NewBool(false),
	}
	for _, v := range values {
		if got, want := v.Hash(), fnvReference(v); got != want {
			t.Errorf("%s %v: Hash() = %#x, want %#x", v.Kind, v, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = v.Hash() }); allocs != 0 {
			t.Errorf("%s %v: Hash allocates %.1f times, want 0", v.Kind, v, allocs)
		}
	}
}

func TestGroupKeyDistinguishesKinds(t *testing.T) {
	keys := map[string]bool{}
	values := []Value{Null(), NewInt(0), NewFloat(0.5), NewString("0"), NewBool(false), NewTimestampMicros(0)}
	for _, v := range values {
		k := v.GroupKey()
		if keys[k] {
			t.Errorf("group key collision for %v", v)
		}
		keys[k] = true
	}
	// Int and integral float share a group key on purpose (numeric GROUP BY).
	if NewInt(3).GroupKey() != NewFloat(3).GroupKey() {
		t.Error("int 3 and float 3.0 should share a group key")
	}
}

func TestSchemaOperations(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Kind: KindInt, NotNull: true},
		Column{Name: "Name", Kind: KindString},
	)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.IndexOf("NAME") != 1 || s.IndexOf("name") != 1 {
		t.Error("IndexOf should be case-insensitive")
	}
	if s.IndexOf("missing") != -1 {
		t.Error("IndexOf missing should be -1")
	}
	col, ok := s.Column("ID")
	if !ok || col.Kind != KindInt || !col.NotNull {
		t.Errorf("Column(ID) = %+v, %v", col, ok)
	}
	if !s.Equal(s) {
		t.Error("schema should equal itself")
	}
	other := NewSchema(Column{Name: "id", Kind: KindFloat})
	if s.Equal(other) {
		t.Error("different schemas should not be equal")
	}
}

func TestValidateRow(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Kind: KindInt, NotNull: true},
		Column{Name: "v", Kind: KindFloat},
	)
	row, err := ValidateRow(s, Row{NewString("5"), NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Kind != KindInt || row[0].Int != 5 {
		t.Errorf("coercion failed: %+v", row[0])
	}
	if row[1].Kind != KindFloat || row[1].Float != 2 {
		t.Errorf("coercion failed: %+v", row[1])
	}
	if _, err := ValidateRow(s, Row{Null(), NewFloat(1)}); err == nil {
		t.Error("NULL in NOT NULL column should fail")
	}
	if _, err := ValidateRow(s, Row{NewInt(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ValidateRow(s, Row{NewString("x"), NewFloat(1)}); err == nil {
		t.Error("uncoercible value should fail")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int != 1 {
		t.Error("clone should not share storage")
	}
}

func TestParseTimestampFormats(t *testing.T) {
	good := []string{"2016-03-15", "2016-03-15 10:11:12", "2016-03-15 10:11:12.000001"}
	for _, s := range good {
		if _, err := ParseTimestamp(s); err != nil {
			t.Errorf("ParseTimestamp(%q): %v", s, err)
		}
	}
	if _, err := ParseTimestamp("not a date"); err == nil {
		t.Error("expected error")
	}
}

// referenceText is the rendering String and AsString had before AppendText
// owned it, kept as the oracle: one formatting call per kind, no shared code
// with the implementation under test.
func referenceText(v Value) string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindTimestamp:
		return time.UnixMicro(v.Int).UTC().Format("2006-01-02 15:04:05.000000")
	default:
		return fmt.Sprintf("<%v>", v.Kind)
	}
}

// TestAppendTextIsTheOneRendering: for random values of every kind — and the
// edge values randomness rarely finds — AppendText, String and AsString all
// produce the reference rendering, and AppendText only ever appends.
func TestAppendTextIsTheOneRendering(t *testing.T) {
	check := func(v Value) bool {
		want := referenceText(v)
		got := string(v.AppendText([]byte("prefix|")))
		asString := want
		if v.Kind == KindNull {
			asString = ""
		}
		return got == "prefix|"+want && v.String() == want && v.AsString() == asString
	}
	property := func(kind uint8, i int64, f float64, s string, b bool) bool {
		return check(Value{Kind: Kind(kind % 7), Int: i, Float: f, Str: s, Bool: b})
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for _, v := range []Value{
		Null(), NewInt(math.MinInt64), NewInt(math.MaxInt64), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(math.Copysign(0, -1)), NewFloat(1e21), NewFloat(1e-7), NewFloat(0.1), NewFloat(math.MaxFloat64),
		NewFloat(math.SmallestNonzeroFloat64), NewString(""), NewString("NULL"), NewString("\x00\xff<&>"), NewBool(true), NewBool(false),
		NewTimestampMicros(0), NewTimestampMicros(-1), NewTimestampMicros(math.MaxInt64 / 2), NewTimestampMicros(math.MinInt64 / 2),
		NewTimestamp(time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC)), {Kind: Kind(200)},
	} {
		if !check(v) {
			t.Errorf("%#v renders as %q / %q / %q, reference %q", v, v.AppendText(nil), v.String(), v.AsString(), referenceText(v))
		}
	}
}
