// Package linalg implements the ScaLAPACK-class provider of the nexus
// framework: a dense linear-algebra engine whose centerpiece is a
// cache-blocked, multi-core matrix multiply. It is the server with a
// "direct implementation of matrix multiply" from the paper's intent-
// preservation desideratum: plans that reach it with a MatMul node run
// orders of magnitude faster than the join+aggregate encoding of the
// same computation on a relational engine.
package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"nexus/internal/core"
	"nexus/internal/engines/array"
	"nexus/internal/engines/exec"
	"nexus/internal/provider"
	"nexus/internal/table"
)

// Engine is the dense linear-algebra provider.
type Engine struct {
	exec.Engine
	*exec.Tables
}

var _ provider.Provider = (*Engine)(nil)

// New returns an empty linalg engine. Its capabilities are an analytics
// server's, not a database's: no joins, grouping, sorting or iteration,
// but native MatMul, Transpose, ElemWise and dimension reductions.
func New(name string) *Engine {
	e := &Engine{Tables: exec.NewTables("linalg")}
	caps := provider.NewCapabilities(
		core.KScan, core.KLiteral, core.KVar, core.KLet,
		core.KMatMul, core.KTranspose, core.KElemWise, core.KReduceDims,
		core.KExtend, core.KProject, core.KRename,
		core.KAsArray, core.KDropDims, core.KFill, core.KDice, core.KSlice, core.KShift,
	)
	e.Engine = exec.NewEngine("linalg", name, caps, e.Dataset, e.override)
	return e
}

func (e *Engine) override(n core.Node, env *exec.Env, rec exec.RecFunc) (*table.Table, bool, error) {
	mm, ok := n.(*core.MatMul)
	if !ok {
		return nil, false, nil
	}
	l, err := rec(mm.Children()[0], env)
	if err != nil {
		return nil, false, err
	}
	r, err := rec(mm.Children()[1], env)
	if err != nil {
		return nil, false, err
	}
	dl, err := array.FromTable(l)
	if err != nil {
		return nil, false, nil // fall back to the sparse path
	}
	dr, err := array.FromTable(r)
	if err != nil {
		return nil, false, nil
	}
	if len(dl.Shape) != 2 || len(dr.Shape) != 2 {
		return nil, false, nil
	}
	dl.FillValue(0) // absent cells are implicit zeros for gemm
	dr.FillValue(0)
	out, err := MatMulDense(dl, dr, mm.As)
	if err != nil {
		return nil, false, err
	}
	// The kernel names output dims after the plan's schema.
	outT, err := out.ToTable()
	if err != nil {
		return nil, false, err
	}
	outT, err = outT.WithSchema(mm.Schema())
	if err != nil {
		return nil, false, err
	}
	return outT, true, nil
}

// blockSize is tuned for L1-resident tiles of float64.
const blockSize = 64

// MatMulDense computes C = A·B over dense 2-D arrays with a cache-blocked
// ikj loop nest parallelized across row blocks. A must be m×k with
// matching inner extent k×n on B.
func MatMulDense(a, b *array.Dense, as string) (*array.Dense, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("linalg: matmul needs 2-D operands")
	}
	m, k := int(a.Shape[0]), int(a.Shape[1])
	k2, n := int(b.Shape[0]), int(b.Shape[1])
	if k != k2 {
		return nil, fmt.Errorf("linalg: inner extents differ: %d vs %d", k, k2)
	}
	c := make([]float64, m*n)
	av, bv := a.Vals, b.Vals

	workers := runtime.GOMAXPROCS(0)
	if workers > m/2+1 {
		workers = m/2 + 1
	}
	var wg sync.WaitGroup
	rowsPer := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		hi := lo + rowsPer
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i0 := lo; i0 < hi; i0 += blockSize {
				iMax := min(i0+blockSize, hi)
				for k0 := 0; k0 < k; k0 += blockSize {
					kMax := min(k0+blockSize, k)
					for j0 := 0; j0 < n; j0 += blockSize {
						jMax := min(j0+blockSize, n)
						for i := i0; i < iMax; i++ {
							ci := c[i*n : (i+1)*n]
							ai := av[i*k : (i+1)*k]
							for kk := k0; kk < kMax; kk++ {
								aik := ai[kk]
								if aik == 0 {
									continue
								}
								bk := bv[kk*n : (kk+1)*n]
								for j := j0; j < jMax; j++ {
									ci[j] += aik * bk[j]
								}
							}
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	outI, outJ := a.DimNames[0], b.DimNames[1]
	if outI == outJ {
		outJ += "_r"
	}
	return &array.Dense{
		DimNames: []string{outI, outJ},
		Lo:       []int64{a.Lo[0], b.Lo[1]},
		Shape:    []int64{int64(m), int64(n)},
		Vals:     c,
		ValName:  as,
	}, nil
}

// Dot computes the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
