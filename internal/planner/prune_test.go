package planner

import (
	"reflect"
	"testing"

	"nexus/internal/expr"
	"nexus/internal/value"
)

// TestConjuncts pins the single AND-tree walk behind AnalyzeScanAccess
// and AnalyzeAggAccess: preds are every captured column-vs-constant
// conjunct (left to right, constant-on-the-left flipped), and exact holds
// only when nothing else was present.
func TestConjuncts(t *testing.T) {
	col, i := expr.Column, expr.CInt
	pred := func(c string, op value.BinOp, v int64) ScanPred {
		return ScanPred{Col: c, Op: op, Val: value.NewInt(v)}
	}
	cases := []struct {
		name  string
		e     expr.Expr
		preds []ScanPred
		exact bool
	}{
		{"single", expr.Gt(col("a"), i(5)),
			[]ScanPred{pred("a", value.OpGt, 5)}, true},
		{"flipped constant", expr.Lt(i(5), col("a")),
			[]ScanPred{pred("a", value.OpGt, 5)}, true},
		{"flipped symmetric", expr.Eq(i(3), col("b")),
			[]ScanPred{pred("b", value.OpEq, 3)}, true},
		{"and tree", expr.And(expr.And(expr.Ge(col("a"), i(1)), expr.Le(i(9), col("b"))), expr.Ne(col("c"), i(0))),
			[]ScanPred{pred("a", value.OpGe, 1), pred("b", value.OpGe, 9), pred("c", value.OpNe, 0)}, true},
		{"and with or", expr.And(expr.Gt(col("a"), i(1)), expr.Or(expr.Eq(col("b"), i(2)), expr.Eq(col("b"), i(3)))),
			[]ScanPred{pred("a", value.OpGt, 1)}, false},
		{"or only", expr.Or(expr.Eq(col("a"), i(1)), expr.Eq(col("a"), i(2))),
			nil, false},
		{"column vs column", expr.And(expr.Lt(col("a"), col("b")), expr.Eq(col("c"), i(7))),
			[]ScanPred{pred("c", value.OpEq, 7)}, false},
		{"constant vs constant", expr.Eq(i(1), i(1)),
			nil, false},
		{"call", expr.And(expr.NewCall("lower", col("s")), expr.Gt(col("a"), i(2))),
			[]ScanPred{pred("a", value.OpGt, 2)}, false},
		{"call compared", expr.Eq(expr.NewCall("abs", col("a")), i(4)),
			nil, false},
		{"arithmetic", expr.Gt(expr.Add(col("a"), i(1)), i(4)),
			nil, false},
		{"not", expr.Not(expr.Eq(col("a"), i(1))),
			nil, false},
		{"bare column", col("flag"),
			nil, false},
	}
	for _, c := range cases {
		preds, exact := conjuncts(c.e)
		if !reflect.DeepEqual(preds, c.preds) || exact != c.exact {
			t.Errorf("%s: conjuncts = (%v, %v), want (%v, %v)", c.name, preds, exact, c.preds, c.exact)
		}
	}
}
