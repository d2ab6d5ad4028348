// Package relational implements the column-store-class provider of the
// nexus framework: a vectorized, in-memory columnar engine that executes
// the complete Big Data algebra through the generic runtime — hash joins,
// hash aggregation, stable sorts, set operations, and a generic loop for
// control iteration. It doubles as the semantic reference engine: every
// other engine's results are property-tested against it.
package relational

import (
	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/provider"
)

// Engine is an in-memory columnar relational provider: the engine shell
// over an in-memory dataset table, with no override kernels.
type Engine struct {
	exec.Engine
	*exec.Tables
}

var _ provider.Provider = (*Engine)(nil)

// New returns an empty engine with the given provider name. Its
// capabilities are the full relational algebra, control iteration, and
// the dimension-tagging/reduction operators that desugar to relational
// plans — but not the dense-array kernels (window, fill, transpose,
// element-wise) or matrix multiply, which a column store would not
// implement natively. Those operators reach this provider only after
// the planner desugars or re-routes them (desideratum D2's "combination
// of such systems").
func New(name string) *Engine {
	ds := exec.NewTables("relational")
	caps := provider.AllOps().Without(
		core.KMatMul, core.KWindow, core.KFill, core.KElemWise, core.KTranspose,
	)
	return &Engine{Engine: exec.NewEngine("relational", name, caps, ds.Dataset, nil), Tables: ds}
}
