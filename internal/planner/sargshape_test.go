package planner

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"idaax/internal/stats"
	"idaax/internal/types"
)

// readSargShapes reads the shape table every consumer of a WHERE conjunct
// checks its decisions against: one row per conjunct, columns split on "|".
func readSargShapes(t *testing.T) [][]string {
	t.Helper()
	data, err := os.ReadFile("../sqlparse/testdata/sarg_shapes.txt")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "|")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		if len(cols) != 7 {
			t.Fatalf("shape row %q has %d columns, want 7", line, len(cols))
		}
		rows = append(rows, cols)
	}
	return rows
}

// TestSargShapes pins the planner's selectivity estimates and shard
// candidates for every conjunct of the shared shape table.
func TestSargShapes(t *testing.T) {
	intCol := func(name string, ndv float64, rows int64) stats.ColumnSnapshot {
		return stats.ColumnSnapshot{Name: name, Kind: types.KindInt, NonNull: rows, NDV: ndv,
			Min: types.NewInt(0), Max: types.NewInt(rows - 1)}
	}
	tInfo := TableInfo{
		Name: "T",
		Schema: types.NewSchema(
			types.Column{Name: "ID", Kind: types.KindInt},
			types.Column{Name: "X", Kind: types.KindInt},
			types.Column{Name: "S", Kind: types.KindString},
		),
		Stats: stats.Snapshot{Rows: 1000, Cols: []stats.ColumnSnapshot{
			intCol("ID", 1000, 1000), intCol("X", 100, 1000),
			{Name: "S", Kind: types.KindString, NonNull: 1000, NDV: 10, Min: types.NewString("a"), Max: types.NewString("z")},
		}},
		DistKey: "X",
		Shards:  3,
		PlaceKey: func(v types.Value) (int, bool) {
			return int(v.Hash() % 3), true
		},
	}
	uInfo := TableInfo{
		Name: "U",
		Schema: types.NewSchema(
			types.Column{Name: "ID", Kind: types.KindInt},
			types.Column{Name: "Y", Kind: types.KindInt},
		),
		Stats:  stats.Snapshot{Rows: 500, Cols: []stats.ColumnSnapshot{intCol("ID", 500, 500), intCol("Y", 50, 500)}},
		Shards: 1,
	}
	cat := catalogOf(tInfo, uInfo)
	for _, row := range readSargShapes(t) {
		conj := row[0]
		pl := PlanSelect(parseSelect(t, "SELECT * FROM t JOIN u ON t.id = u.id WHERE "+conj), cat)
		sel := map[string]string{}
		shards := ""
		for _, scan := range pl.Scans {
			name := strings.ToLower(scan.Item.Name())
			sel[name] = strconv.FormatFloat(scan.Selectivity, 'g', 4, 64)
			if name != "t" {
				continue
			}
			switch {
			case scan.EmptyCandidates:
				shards = "none"
			case scan.Candidates == nil:
				shards = "all"
			default:
				shards = fmt.Sprint(scan.Candidates)
			}
		}
		got := []string{"t=" + sel["t"] + " u=" + sel["u"], shards}
		for i, name := range []string{"sel", "shards"} {
			if want := row[5+i]; got[i] != want {
				t.Errorf("%s: %s = %q, want %q", conj, name, got[i], want)
			}
		}
	}
}
