package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"idaax/internal/types"
)

// The hand-written codec (encode.go, decode.go) is held to encoding/json: the
// encoder must write the very bytes json.Encoder writes for statementResponse
// and Frame, and the decoder must return what json.Unmarshal returns for every
// document the two of them accept.

// timings exercises every branch of the number formatter: zero (omitted on the
// done frame), plain decimals, and both exponent ranges.
var timings = []float64{0, 0.41, 3.88, 1234.5678, 1e-7, 2.5e-9, 1e21, 1.5e300, 5e-324, 999999.999999, 1e-6, 1e20}

// awkwardStrings is every class of string the escaper treats specially.
var awkwardStrings = func() []string {
	ss := []string{
		"", "plain", "NULL", `say "hi"`, `back\slash`, `\"`, "tab\there", "line\nbreak", "cr\rlf\n",
		"\b\f", "\x00", "\x1f", "\x7f", "<script>alert('x')&amp;</script>", "a<b>c&d",
		"\u2028", "\u2029", "x\u2028y\u2029z", "\u2027\u202a", "é", "日本語", "😀", "\ufffd",
		"\xff", "a\xffb", "\xc3", "\xe2\x80", "\xf0\x9f\x98", "\xc0\xaf", "\xed\xa0\x80", "ok\xf8\x88\x80\x80\x80",
		"/slash/", "[brackets],[more]", `],[`, "{", "}", ":", ",", " lead and trail ",
		strings.Repeat("long ", 2000),
	}
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		ctl.WriteByte(byte(c))
	}
	return append(ss, ctl.String())
}()

// awkwardValues is every kind of value, at the edges of its rendering.
var awkwardValues = func() []types.Value {
	vs := []types.Value{
		types.Null(),
		types.NewInt(0), types.NewInt(-1), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0.1), types.NewFloat(1.0 / 3),
		types.NewFloat(123456789.123), types.NewFloat(1e20), types.NewFloat(1e21), types.NewFloat(1e-7),
		types.NewFloat(math.MaxFloat64), types.NewFloat(math.SmallestNonzeroFloat64), types.NewFloat(100),
		types.NewFloat(2.5e-5), types.NewFloat(-273.15),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewBool(true), types.NewBool(false),
		types.NewTimestampMicros(0), types.NewTimestampMicros(1700000000123456), types.NewTimestampMicros(-1),
		types.NewTimestamp(time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC)),
		types.NewTimestamp(time.Date(12345, 1, 2, 3, 4, 5, 0, time.UTC)),
		{Kind: types.Kind(42)}, // no such kind: renders as "<KIND(42)>", which HTML escaping touches
	}
	for _, s := range awkwardStrings {
		vs = append(vs, types.NewString(s))
	}
	return vs
}()

// corpusResults is the result shapes the server can be handed.
func corpusResults() []*Result {
	wide := &Result{Columns: []string{"A", "B", "C"}, Routed: "SHARDS"}
	for i := 0; i+3 <= len(awkwardValues); i += 3 {
		wide.Rows = append(wide.Rows, types.Row(awkwardValues[i:i+3]))
	}
	single := &Result{Columns: []string{"V"}, Routed: "IDAA1"}
	for _, v := range awkwardValues {
		single.Rows = append(single.Rows, types.Row{v})
	}
	return []*Result{
		{},
		{Columns: []string{"N"}, Routed: "DB2"}, // zero rows: "rows" omitted
		{Columns: []string{}, Rows: []types.Row{}},                                                // empty, not nil
		{Rows: []types.Row{{types.NewInt(1)}}},                                                    // rows without columns
		{Columns: []string{"X"}, Rows: []types.Row{{}, {}}},                                       // zero-width rows
		{Columns: []string{"X"}, Rows: []types.Row{nil}},                                          // nil row
		{Columns: awkwardStrings, Rows: []types.Row{{types.NewString("under awkward names")}}},    // escaping in column names
		{RowsAffected: 3, Routed: "DB2->IDAA1", Message: "3 row(s) inserted"},                     // DML
		{RowsAffected: -1, Message: "odd <b>\"message\"</b>\n\u2028\xff", Routed: "a&b"},          // escaping outside cells
		{Message: "transaction started"},                                                          // message only
		{Columns: []string{"ONE"}, Rows: []types.Row{{types.NewInt(1)}}, RowsAffected: 1 << 40},   // everything at once
		{Columns: []string{"PLAN"}, Rows: []types.Row{{types.NewString("scan t\n  filter a>1")}}}, // EXPLAIN-like text
		wide,
		single,
	}
}

// rendered is the [][]string the parent's server built before marshalling.
func rendered(rows []types.Row) [][]string {
	if rows == nil {
		return nil
	}
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = v.String()
		}
	}
	return out
}

func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantStatementResponse(t testing.TB, res *Result, queuedMS, elapsedMS float64) []byte {
	return jsonLine(t, statementResponse{
		Columns: res.Columns, Rows: rendered(res.Rows), RowsAffected: res.RowsAffected,
		Routed: res.Routed, Message: res.Message, QueuedMS: queuedMS, ElapsedMS: elapsedMS,
	})
}

// wantStream is the parent's streamResult: json.Encoder over Frame values.
func wantStream(t testing.TB, res *Result, chunkRows int, queuedMS, elapsedMS float64) []byte {
	cols := res.Columns
	if cols == nil {
		cols = []string{}
	}
	out := jsonLine(t, Frame{Type: "columns", Columns: cols})
	rows := rendered(res.Rows)
	for off := 0; off < len(rows); off += chunkRows {
		out = append(out, jsonLine(t, Frame{Type: "rows", Rows: rows[off:min(off+chunkRows, len(rows))]})...)
	}
	return append(out, jsonLine(t, Frame{
		Type: "done", RowsAffected: res.RowsAffected, Routed: res.Routed, Message: res.Message,
		QueuedMS: queuedMS, ElapsedMS: elapsedMS,
	})...)
}

// TestEncoderMatchesEncodingJSON: buffered bodies and whole streams are
// byte-identical to what encoding/json produced for the same result.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	srv := NewServer(Config{NewSession: func(string) Session { return nil }, IdleTimeout: -1})
	defer srv.Close()
	for ri, res := range corpusResults() {
		for ti, ms := range timings {
			queued, elapsed := ms, timings[(ti+1)%len(timings)]
			got := appendStatementResponse(nil, res, queued, elapsed)
			if want := wantStatementResponse(t, res, queued, elapsed); !bytes.Equal(got, want) {
				t.Fatalf("result %d, timings %v/%v: buffered body differs\n got %q\nwant %q", ri, queued, elapsed, got, want)
			}
			for _, chunk := range []int{1, 2, 7, 512} {
				rec := httptest.NewRecorder()
				srv.streamResult(rec, nil, res, chunk, queued, elapsed)
				if want := wantStream(t, res, chunk, queued, elapsed); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("result %d, chunk %d: stream differs\n got %q\nwant %q", ri, chunk, rec.Body.Bytes(), want)
				}
			}
		}
	}
}

// documents is everything the encoder produces for the corpus — one document
// per buffered body and per stream line — plus hand-written documents only a
// different server would send: escapes, whitespace, nulls, unknown and
// case-folded fields, and malformed input both decoders must reject.
func documents(t testing.TB) []string {
	var docs []string
	for _, res := range corpusResults() {
		docs = append(docs, string(appendStatementResponse(nil, res, 0.41, 3.88)))
		for _, line := range bytes.SplitAfter(wantStream(t, res, 3, 0, 1e-7), []byte("\n")) {
			if len(line) > 0 {
				docs = append(docs, string(line))
			}
		}
	}
	return append(docs,
		`{"type":"error","error":"scan failed: <boom>"}`,
		`{"rows":[["A\u00e9\u65e5","\ud83d\ude00","\/","\b\f\n\r\t\"\\"]],"queued_ms":0,"elapsed_ms":0}`,
		`{"rows":[["\ud800","\udc00","\ud800A","\ud800\ud800\udc00","\ud83d\ude00\ud83d","\uD83D\uDE00"]]}`,
		`{"columns":["a\u0000b","\u2028","\ufffd","\uffff"]}`,
		"{\"rows\":[[\"raw \xff byte\",\"\xe2\x80\",\"\xcd\\b0\"]]}",
		" \t\r\n{ \"columns\" : [ \"A\" , \"B\" ] , \"rows\" : [ [ \"1\" , \"2\" ] , [ ] ] , \"elapsed_ms\" : 1.5e0 } \n",
		`{"columns":null,"rows":null,"rows_affected":null,"routed":null,"message":null,"queued_ms":null,"elapsed_ms":null,"type":null,"error":null}`,
		`{"columns":[null,"A",null],"rows":[null,["1",null],[]]}`,
		`{"columns":[],"rows":[]}`,
		`{"rows":[[]]}`,
		`{}`, ` { } `, `null`, ` null `,
		`{"COLUMNS":["A"],"Rows":[["1"]],"ROWS_AFFECTED":7,"Routed":"X","TYPE":"rows","Error":"e"}`,
		"{\"row\u017f\":[[\"long s folds to s\"]],\"\u212aey\":1}",
		`{"rows_affected":-0,"queued_ms":-0.0,"elapsed_ms":1E+2}`,
		`{"rows_affected":9223372036854775807,"queued_ms":1e-400,"elapsed_ms":0.1e1}`,
		`{"trace_id":"abc","extra":{"nested":[1,2.5,-3e4,true,false,null,"s",{"k":[]}],"o":{}},"rows":[["1"]],"more":[[[]]]}`,
		`{"type":"done","type_":1,"":2}`,
		`{"rows":[["1"]],"rows":[["2"]]}`, // duplicate field: the one divergence
		`{"Rows":[["1"]],"rows":null}`,
		// Rejected by both.
		``, ` `, `{`, `}`, `[]`, `"x"`, `1`, `true`, `nul`, `nulll`, `{"rows"}`, `{"rows":}`, `{"rows":[}`, `{"rows":[[}`,
		`{"rows":[["1"],]}`, `{"rows":[["1",]]}`, `{"rows":[["1"]],}`, `{,}`, `{"a":1,}`, `{"a":1 "b":2}`, `{"a" 1}`, `{a:1}`,
		`{"rows":"x"}`, `{"rows":["x"]}`, `{"rows":[[1]]}`, `{"rows":[[true]]}`, `{"rows":{}}`, `{"columns":[["A"]]}`, `{"columns":"A"}`,
		`{"routed":1}`, `{"message":[]}`, `{"type":{}}`, `{"error":false}`,
		`{"rows_affected":1.5}`, `{"rows_affected":1e2}`, `{"rows_affected":"1"}`, `{"rows_affected":9223372036854775808}`,
		`{"rows_affected":01}`, `{"rows_affected":+1}`, `{"rows_affected":-}`, `{"rows_affected":1.}`, `{"rows_affected":.5}`,
		`{"queued_ms":1e999}`, `{"queued_ms":"1"}`, `{"queued_ms":1e}`, `{"queued_ms":1e+}`, `{"queued_ms":0x10}`, `{"queued_ms":NaN}`,
		`{"x":"unterminated}`, `{"x":"bad \q escape"}`, `{"x":"\u12"}`, `{"x":"\u12G4"}`, "{\"x\":\"raw\nnewline\"}", "{\"x\":\"\x01\"}",
		`{"x":tru}`, `{"x":falsey}`, `{"x":[1 2]}`, `{"x":{"a":1,}}`, `{"x":{"a"}}`, `{"x":[}`, `{"x":{]}`,
		`{} x`, `{}{}`, `{}null`, `null null`, "\ufeff{}", "{}\x00",
		`{"x":`+strings.Repeat("[", maxDepth-1)+strings.Repeat("]", maxDepth-1)+`}`, // deepest nesting allowed
		`{"x":`+strings.Repeat("[", maxDepth)+strings.Repeat("]", maxDepth)+`}`,     // one level too deep
	)
}

// checkDecode holds both decoders to json.Unmarshal on one document.
func checkDecode(t testing.TB, doc string) {
	t.Helper()
	var wantResp statementResponse
	wantErr := json.Unmarshal([]byte(doc), &wantResp)
	gotResp, gotErr := decodeStatementResponse(doc)
	compareDecode(t, "statementResponse", doc, gotResp, gotErr, wantResp, wantErr)

	var wantFrame Frame
	wantErr = json.Unmarshal([]byte(doc), &wantFrame)
	gotFrame, gotErr := decodeFrame(doc)
	compareDecode(t, "Frame", doc, gotFrame, gotErr, wantFrame, wantErr)
}

func compareDecode(t testing.TB, shape, doc string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	switch {
	case errors.Is(gotErr, errDuplicateField):
		// The documented divergence: rejected whatever encoding/json does.
	case wantErr != nil && gotErr == nil:
		t.Fatalf("%s: accepted %q, encoding/json rejects it: %v", shape, clipDoc(doc), wantErr)
	case wantErr == nil && gotErr != nil:
		t.Fatalf("%s: rejected %q, encoding/json accepts it: %v", shape, clipDoc(doc), gotErr)
	case wantErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: %q decodes differently\n got %#v\nwant %#v", shape, clipDoc(doc), got, want)
	}
}

func clipDoc(doc string) string {
	if len(doc) > 300 {
		return doc[:300] + fmt.Sprintf("... (%d bytes)", len(doc))
	}
	return doc
}

// TestDecoderMatchesEncodingJSON runs the differential over the whole corpus.
func TestDecoderMatchesEncodingJSON(t *testing.T) {
	accepted, rejected := 0, 0
	for _, doc := range documents(t) {
		checkDecode(t, doc)
		if json.Unmarshal([]byte(doc), new(Frame)) == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 100 || rejected < 60 {
		t.Fatalf("corpus shrank: encoding/json accepts %d documents and rejects %d", accepted, rejected)
	}
	if _, err := decodeFrame(`{"rows":[["1"]],"ROWS":[["2"]]}`); !errors.Is(err, errDuplicateField) {
		t.Fatalf("duplicate field (case-folded): err = %v, want errDuplicateField", err)
	}
}

func FuzzDecodeStatementResponse(f *testing.F) {
	for _, doc := range documents(f) {
		if len(doc) < 4096 {
			f.Add(doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var want statementResponse
		wantErr := json.Unmarshal([]byte(doc), &want)
		got, gotErr := decodeStatementResponse(doc)
		compareDecode(t, "statementResponse", doc, got, gotErr, want, wantErr)
	})
}

func FuzzDecodeFrame(f *testing.F) {
	for _, doc := range documents(f) {
		if len(doc) < 4096 {
			f.Add(doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var want Frame
		wantErr := json.Unmarshal([]byte(doc), &want)
		got, gotErr := decodeFrame(doc)
		compareDecode(t, "Frame", doc, got, gotErr, want, wantErr)
	})
}

// ordersResult is shaped like the benchmark's wide_result rows: four integer
// columns, one two-decimal float, one short string.
func ordersResult(rows int) *Result {
	res := &Result{Columns: []string{"ID", "CUSTOMER_ID", "AMOUNT", "QTY", "REGION", "PRODUCT_ID"}, Routed: "SHARDS"}
	regions := []string{"EMEA", "APAC", "AMER", "LATAM"}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, types.Row{
			types.NewInt(int64(100000 + i)), types.NewInt(int64(i * 7919 % 20000)), types.NewFloat(float64(i%50000) / 100),
			types.NewInt(int64(1 + i%9)), types.NewString(regions[i%4]), types.NewInt(int64(i % 50)),
		})
	}
	return res
}

// encodePooled renders one buffered body the way the handler does.
func encodePooled(res *Result) int {
	bp := getBuf()
	buf := appendStatementResponse((*bp)[:0], res, 0.41, 3.88)
	n := len(buf)
	putBuf(bp, buf)
	return n
}

// encodeJSON is the parent's path: render every cell to a string, then
// marshal by reflection.
func encodeJSON(res *Result) {
	_ = json.NewEncoder(io.Discard).Encode(statementResponse{
		Columns: res.Columns, Rows: rendered(res.Rows), Routed: res.Routed, QueuedMS: 0.41, ElapsedMS: 3.88,
	})
}

// TestCodecAllocationBudget gates the deterministic cost of the codec: a
// result costs a fixed handful of allocations however many rows it has, and a
// one-row result never costs more than the encoding/json path it replaced.
func TestCodecAllocationBudget(t *testing.T) {
	wide, one := ordersResult(10000), ordersResult(1)
	wideBody := appendStatementResponse(nil, wide, 0.41, 3.88)
	oneBody := appendStatementResponse(nil, one, 0.41, 3.88)
	// The encoder appends into whatever buffer it is handed; a warm server
	// hands it a pooled one that has already grown to size.
	buf := make([]byte, 0, len(wideBody))
	encode := func(res *Result) func() {
		return func() { buf = appendStatementResponse(buf[:0], res, 0.41, 3.88) }
	}
	decode := func(body []byte) func() {
		return func() {
			if _, err := decodeStatementResponse(string(body)); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeJSON := func() {
		var resp statementResponse
		if err := json.Unmarshal(oneBody, &resp); err != nil {
			t.Fatal(err)
		}
	}
	for _, gate := range []struct {
		name  string
		limit float64
		fn    func()
	}{
		{"encode 10000x6", 4, encode(wide)},
		{"decode 10000x6", 16, decode(wideBody)},
		{"encode 1x6 vs encoding/json", testing.AllocsPerRun(100, func() { encodeJSON(one) }), encode(one)},
		{"decode 1x6 vs encoding/json", testing.AllocsPerRun(100, decodeJSON), decode(oneBody)},
	} {
		if got := testing.AllocsPerRun(20, gate.fn); got > gate.limit {
			t.Errorf("%s: %.0f allocations, budget %.0f", gate.name, got, gate.limit)
		}
	}
}

var benchSink int

func BenchmarkEncode(b *testing.B) {
	for _, size := range []struct {
		name string
		res  *Result
	}{{"10000x6", ordersResult(10000)}, {"1x3", &Result{Columns: []string{"SEGMENT", "AGE", "INCOME"}, Routed: "SHARDS",
		Rows: []types.Row{{types.NewString("retail"), types.NewInt(41), types.NewFloat(52340.5)}}}}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(encodePooled(size.res)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += encodePooled(size.res)
			}
		})
		b.Run(size.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeJSON(size.res)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, size := range []struct {
		name string
		body []byte
	}{{"10000x6", appendStatementResponse(nil, ordersResult(10000), 0.41, 3.88)},
		{"1x3", []byte(`{"columns":["SEGMENT","AGE","INCOME"],"rows":[["retail","41","52340.5"]],"routed":"SHARDS","queued_ms":0.41,"elapsed_ms":3.88}` + "\n")}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(size.body)))
			for i := 0; i < b.N; i++ {
				resp, err := decodeStatementResponse(string(size.body))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(resp.Rows)
			}
		})
		b.Run(size.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var resp statementResponse
				if err := json.Unmarshal(size.body, &resp); err != nil {
					b.Fatal(err)
				}
				benchSink += len(resp.Rows)
			}
		})
	}
}
