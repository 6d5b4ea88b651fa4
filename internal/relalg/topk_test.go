package relalg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"idaax/internal/types"
)

// topKRelation builds n rows with heavy ties and NULLs in every sort column.
func topKRelation(rng *rand.Rand, n int) *Relation {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
		types.Column{Name: "B", Kind: types.KindString},
		types.Column{Name: "C", Kind: types.KindFloat},
		types.Column{Name: "D", Kind: types.KindBool},
	)
	maybeNull := func(v types.Value) types.Value {
		if rng.Intn(5) == 0 {
			return types.Null()
		}
		return v
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			maybeNull(types.NewInt(int64(rng.Intn(4)))),
			maybeNull(types.NewString(string(rune('a' + rng.Intn(3))))),
			maybeNull(types.NewFloat(float64(rng.Intn(3)) * 0.5)),
			maybeNull(types.NewBool(rng.Intn(2) == 0)),
		}
	}
	return FromTable("T", schema, rows)
}

func rowsText(rel *Relation) string {
	var sb strings.Builder
	for _, row := range rel.Rows {
		for _, v := range row {
			sb.WriteString(v.String() + " ")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestTopKMatchesFullSort pins the bounded-heap ORDER BY ... LIMIT against
// the full stable sort followed by LIMIT/OFFSET: random relations with ties
// and NULLs, one to three sort keys in mixed directions, plain and grouped
// statements, and k = LIMIT + OFFSET in {0, 1, n-1, n, n+1}.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(40)
		rel := topKRelation(rng, n)
		stmt, keys := "SELECT id, a, b, c, d FROM t ORDER BY ", []string{"a", "b", "c", "d"}
		if iter%4 == 3 {
			stmt, keys = "SELECT a, b, COUNT(*) AS n, MAX(id) AS m FROM t GROUP BY a, b ORDER BY ", []string{"a", "b", "n", "m"}
		}
		var order []string
		for _, i := range rng.Perm(len(keys))[:1+rng.Intn(3)] {
			if rng.Intn(2) == 0 {
				order = append(order, keys[i]+" DESC")
			} else {
				order = append(order, keys[i])
			}
		}
		stmt += strings.Join(order, ", ")
		full, err := ExecuteSelect(rel, mustSelect(t, stmt), Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		rows := len(full.Rows)
		for _, k := range []int{0, 1, rows - 1, rows, rows + 1} {
			if k < 0 {
				continue
			}
			offset := rng.Intn(k + 1)
			limited := fmt.Sprintf("%s LIMIT %d OFFSET %d", stmt, k-offset, offset)
			got, err := ExecuteSelect(rel, mustSelect(t, limited), Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", limited, err)
			}
			want := &Relation{Cols: full.Cols, Rows: full.Rows}
			applyLimit(want, int64(k-offset), int64(offset))
			if rowsText(got) != rowsText(want) {
				t.Fatalf("%s:\n--- top-k ---\n%s--- full sort ---\n%s", limited, rowsText(got), rowsText(want))
			}
		}
	}
}

// TestTopKMixedKindsKeepSortError pins that a sort column holding
// incomparable kinds still fails the way the full sort does, LIMIT or not.
func TestTopKMixedKindsKeepSortError(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "M", Kind: types.KindString},
	)
	var rows []types.Row
	for i := 0; i < 10; i++ {
		m := types.NewString(fmt.Sprint("s", i))
		if i%2 == 1 {
			m = types.NewInt(int64(i))
		}
		rows = append(rows, types.Row{types.NewInt(int64(i)), m})
	}
	rel := FromTable("T", schema, rows)
	_, fullErr := ExecuteSelect(rel, mustSelect(t, "SELECT id FROM t ORDER BY m"), Options{})
	if fullErr == nil {
		t.Fatal("full sort over mixed kinds succeeded")
	}
	_, topErr := ExecuteSelect(rel, mustSelect(t, "SELECT id FROM t ORDER BY m LIMIT 3"), Options{})
	if topErr == nil || topErr.Error() != fullErr.Error() {
		t.Fatalf("ORDER BY ... LIMIT over mixed kinds: err %v, want %v", topErr, fullErr)
	}
}
