package shard

import (
	"fmt"
	"strings"

	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// formatExpr renders an expression tree into a canonical string so that two
// structurally identical expressions compare equal. The two-phase aggregation
// planner uses it to recognise occurrences of GROUP BY expressions inside the
// select list, HAVING and ORDER BY, and to de-duplicate identical aggregate
// calls across clauses.
func formatExpr(e sqlparse.Expr) string {
	switch n := e.(type) {
	case nil:
		return "<nil>"
	case *sqlparse.ColumnRef:
		return "col(" + types.NormalizeName(n.Table) + "." + types.NormalizeName(n.Name) + ")"
	case *sqlparse.Literal:
		return fmt.Sprintf("lit(%d:%s)", n.Val.Kind, n.Val.GroupKey())
	case *sqlparse.BinaryExpr:
		return fmt.Sprintf("bin(%d,%s,%s)", n.Op, formatExpr(n.Left), formatExpr(n.Right))
	case *sqlparse.UnaryExpr:
		return fmt.Sprintf("un(%s,%s)", n.Op, formatExpr(n.Operand))
	case *sqlparse.FuncCall:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = formatExpr(a)
		}
		return fmt.Sprintf("fn(%s,star=%t,distinct=%t,%s)", strings.ToUpper(n.Name), n.Star, n.Distinct, strings.Join(parts, ","))
	case *sqlparse.CaseExpr:
		var sb strings.Builder
		sb.WriteString("case(")
		sb.WriteString(formatExpr(n.Operand))
		for _, w := range n.Whens {
			sb.WriteString(",when(" + formatExpr(w.Cond) + "," + formatExpr(w.Result) + ")")
		}
		sb.WriteString(",else(" + formatExpr(n.Else) + "))")
		return sb.String()
	case *sqlparse.IsNullExpr:
		return fmt.Sprintf("isnull(%t,%s)", n.Negate, formatExpr(n.Operand))
	case *sqlparse.InExpr:
		parts := make([]string, len(n.List))
		for i, v := range n.List {
			parts[i] = formatExpr(v)
		}
		return fmt.Sprintf("in(%t,%s,%s)", n.Negate, formatExpr(n.Operand), strings.Join(parts, ","))
	case *sqlparse.BetweenExpr:
		return fmt.Sprintf("between(%t,%s,%s,%s)", n.Negate, formatExpr(n.Operand), formatExpr(n.Low), formatExpr(n.High))
	case *sqlparse.LikeExpr:
		return fmt.Sprintf("like(%t,%s,%s)", n.Negate, formatExpr(n.Operand), formatExpr(n.Pattern))
	case *sqlparse.CastExpr:
		return fmt.Sprintf("cast(%d,%s)", n.To, formatExpr(n.Operand))
	default:
		return fmt.Sprintf("%T", e)
	}
}
