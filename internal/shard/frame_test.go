package shard

import (
	"math"
	"strings"
	"testing"

	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// frameTestRelation builds a relation exercising every value kind, NULLs in
// every column, repeated strings (the mini-dictionary case) and the float
// edge values whose bit patterns must survive the wire exactly.
func frameTestRelation() *relalg.Relation {
	rel := &relalg.Relation{
		Cols: []expr.InputColumn{
			{Qualifier: "T", Name: "__G0", Kind: types.KindString},
			{Qualifier: "", Name: "__A0", Kind: types.KindInt},
			{Qualifier: "T", Name: "__A1", Kind: types.KindFloat},
			{Name: "B", Kind: types.KindBool},
			{Name: "TS", Kind: types.KindTimestamp},
		},
	}
	groups := []string{"EU", "US", "EU", "APAC", "US", "EU", ""}
	for i, g := range groups {
		row := types.Row{
			types.NewString(g),
			types.NewInt(int64(i) - 3),
			types.NewFloat(float64(i) * 0.125),
			types.NewBool(i%2 == 0),
			types.NewTimestampMicros(int64(1_700_000_000_000_000 + i)),
		}
		switch i {
		case 1:
			row[0] = types.Null()
		case 2:
			row[1] = types.Null()
			row[2] = types.NewFloat(math.NaN())
		case 3:
			row[2] = types.NewFloat(math.Copysign(0, -1)) // -0.0
		case 4:
			row[2] = types.NewFloat(math.Inf(1))
			row[3] = types.Null()
		case 5:
			row[4] = types.Null()
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

func TestAggFrameRoundTrip(t *testing.T) {
	rel := frameTestRelation()
	got, err := decodeAggFrame(encodeAggFrame(rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != len(rel.Cols) {
		t.Fatalf("column count: got %d want %d", len(got.Cols), len(rel.Cols))
	}
	for i, c := range rel.Cols {
		if got.Cols[i] != c {
			t.Errorf("col %d: got %+v want %+v", i, got.Cols[i], c)
		}
	}
	if len(got.Rows) != len(rel.Rows) {
		t.Fatalf("row count: got %d want %d", len(got.Rows), len(rel.Rows))
	}
	for ri, row := range rel.Rows {
		for ci, want := range row {
			g := got.Rows[ri][ci]
			// Bit-exact comparison: NaN must stay NaN, -0.0 must keep its
			// sign, and everything else must be the identical value.
			if g.Kind != want.Kind {
				t.Fatalf("row %d col %d: kind %v want %v", ri, ci, g.Kind, want.Kind)
			}
			if want.Kind == types.KindFloat {
				if math.Float64bits(g.Float) != math.Float64bits(want.Float) {
					t.Errorf("row %d col %d: float bits %x want %x", ri, ci,
						math.Float64bits(g.Float), math.Float64bits(want.Float))
				}
				continue
			}
			if g != want {
				t.Errorf("row %d col %d: got %+v want %+v", ri, ci, g, want)
			}
		}
	}
}

func TestAggFrameEmptyRelation(t *testing.T) {
	rel := &relalg.Relation{Cols: []expr.InputColumn{
		{Name: "__G0", Kind: types.KindString},
		{Name: "__A0", Kind: types.KindInt},
	}}
	got, err := decodeAggFrame(encodeAggFrame(rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || len(got.Cols) != 2 {
		t.Fatalf("empty relation decoded to %d rows, %d cols", len(got.Rows), len(got.Cols))
	}
}

// TestAggFrameTruncated feeds every proper prefix of a valid frame to the
// decoder: each must fail cleanly (no panic, no silent partial relation).
func TestAggFrameTruncated(t *testing.T) {
	buf := encodeAggFrame(frameTestRelation())
	for n := 0; n < len(buf); n++ {
		if _, err := decodeAggFrame(buf[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(buf))
		}
	}
	if _, err := decodeAggFrame(buf); err != nil {
		t.Fatalf("full frame: %v", err)
	}
}

func TestAggFrameCorruption(t *testing.T) {
	rel := &relalg.Relation{
		Cols: []expr.InputColumn{{Name: "S", Kind: types.KindString}},
		Rows: []types.Row{{types.NewString("x")}},
	}
	buf := encodeAggFrame(rel)
	// The string value is the last 5 bytes: tag 0x03 + u32 code 0. Bumping
	// the code past the dictionary must be rejected.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-4] = 9
	if _, err := decodeAggFrame(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range dictionary code: err=%v", err)
	}
	// An unknown value tag must be rejected too.
	bad = append([]byte(nil), buf...)
	bad[len(bad)-5] = 0x7f
	if _, err := decodeAggFrame(bad); err == nil || !strings.Contains(err.Error(), "unknown value tag") {
		t.Fatalf("unknown tag: err=%v", err)
	}
}

// TestAggFrameBeatsTextForRepeatedKeys pins the point of the format: a
// grouped partial whose string keys repeat encodes each distinct string once,
// so the frame undercuts the re-encoded-text baseline.
func TestAggFrameBeatsTextForRepeatedKeys(t *testing.T) {
	rel := &relalg.Relation{Cols: []expr.InputColumn{
		{Name: "__G0", Kind: types.KindString},
		{Name: "__A0", Kind: types.KindFloat},
	}}
	keys := []string{"ENTERPRISE-ACCOUNTS", "SMB-ACCOUNTS", "CONSUMER-ACCOUNTS"}
	for i := 0; i < 300; i++ {
		rel.Rows = append(rel.Rows, types.Row{
			types.NewString(keys[i%len(keys)]),
			types.NewFloat(float64(i) * 1.5),
		})
	}
	frame := int64(len(encodeAggFrame(rel)))
	text := textWireBytes(rel)
	if frame >= text {
		t.Fatalf("frame (%d bytes) not smaller than text baseline (%d bytes)", frame, text)
	}
}
