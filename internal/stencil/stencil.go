package stencil

import (
	"fmt"
	"math"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

// Kernel is one uniform-dependence assignment statement.
type Kernel interface {
	// Name identifies the kernel in logs and CLI output.
	Name() string
	// Deps returns the kernel's dependence set.
	Deps() *deps.Set
	// Eval computes the value at point j from its dependence predecessors:
	// pred[i] is the value at j − Deps().At(i), already resolved by the
	// executor (inside the space or from the boundary). j and pred are
	// read-only scratch, valid only during the call.
	Eval(j ilmath.Vec, pred []float64) float64
}

// Boundary supplies values for reads outside the iteration space. The
// default boundary is the constant 1.
type Boundary func(j ilmath.Vec) float64

// ConstBoundary returns a Boundary with a fixed value everywhere.
func ConstBoundary(v float64) Boundary {
	return func(ilmath.Vec) float64 { return v }
}

// Sqrt3D is the paper's Section 5 test kernel:
//
//	A(i,j,k) = √A(i−1,j,k) + √A(i,j−1,k) + √A(i,j,k−1)
//
// chosen by the authors ("square roots and floats") to raise t_c to a
// realistic value.
type Sqrt3D struct{}

// Name implements Kernel.
func (Sqrt3D) Name() string { return "sqrt3d" }

// Deps implements Kernel.
func (Sqrt3D) Deps() *deps.Set { return deps.Stencil3D() }

// Eval implements Kernel.
func (Sqrt3D) Eval(_ ilmath.Vec, pred []float64) float64 {
	return math.Sqrt(pred[0]) + math.Sqrt(pred[1]) + math.Sqrt(pred[2])
}

// Sum2D is the kernel of the paper's Example 1:
//
//	A(i1,i2) = A(i1−1,i2−1) + A(i1−1,i2) + A(i1,i2−1)
type Sum2D struct{}

// Name implements Kernel.
func (Sum2D) Name() string { return "sum2d" }

// Deps implements Kernel.
func (Sum2D) Deps() *deps.Set { return deps.Example1Deps() }

// Eval implements Kernel.
func (Sum2D) Eval(_ ilmath.Vec, pred []float64) float64 {
	return pred[0] + pred[1] + pred[2]
}

// Weighted is a generic uniform-dependence kernel: a weighted sum over the
// dependence predecessors, optionally passed through math.Sqrt. It lets
// tests and benchmarks dial t_c and dependence structure freely.
type Weighted struct {
	KernelName string
	D          *deps.Set
	Weights    []float64
	UseSqrt    bool
}

// NewWeighted validates and builds a Weighted kernel.
func NewWeighted(name string, d *deps.Set, weights []float64, useSqrt bool) (*Weighted, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("stencil: empty dependence set")
	}
	if len(weights) != d.Len() {
		return nil, fmt.Errorf("stencil: %d weights for %d dependences", len(weights), d.Len())
	}
	return &Weighted{KernelName: name, D: d, Weights: weights, UseSqrt: useSqrt}, nil
}

// Name implements Kernel.
func (w *Weighted) Name() string { return w.KernelName }

// Deps implements Kernel.
func (w *Weighted) Deps() *deps.Set { return w.D }

// Eval implements Kernel.
func (w *Weighted) Eval(_ ilmath.Vec, pred []float64) float64 {
	var s float64
	for i, v := range pred {
		if w.UseSqrt {
			v = math.Sqrt(math.Abs(v))
		}
		s += w.Weights[i] * v
	}
	return s
}

// Grid is a dense array over an iteration space, row-major in lexicographic
// point order.
type Grid struct {
	Space *space.Space
	Data  []float64
}

// NewGrid allocates a zeroed grid over s.
func NewGrid(s *space.Space) *Grid {
	return &Grid{Space: s, Data: make([]float64, s.Volume())}
}

// At returns the value at point j. It panics if j is outside the space.
func (g *Grid) At(j ilmath.Vec) float64 { return g.Data[g.Space.Linearize(j)] }

// Set assigns the value at point j.
func (g *Grid) Set(j ilmath.Vec, v float64) { g.Data[g.Space.Linearize(j)] = v }

// RunSequential executes the kernel over the whole space in lexicographic
// (sequential loop) order — the reference semantics every parallel schedule
// must reproduce exactly. It is deliberately the plain point-by-point
// definition: each predecessor j − d is tested with Space.Contains and read
// through Grid.At or the boundary, with no tiling and no flat offsets, so it
// stays an independent oracle of the executors' index arithmetic.
func RunSequential(s *space.Space, k Kernel, b Boundary) (*Grid, error) {
	if s.Dim() != k.Deps().Dim() {
		return nil, fmt.Errorf("stencil: kernel %s has dimension %d, space has %d",
			k.Name(), k.Deps().Dim(), s.Dim())
	}
	if b == nil {
		b = ConstBoundary(1)
	}
	g := NewGrid(s)
	ds := k.Deps().Vectors()
	pred := make([]float64, len(ds))
	q := ilmath.NewVec(s.Dim())
	s.Points(func(j ilmath.Vec) bool {
		for i, d := range ds {
			for x := range q {
				q[x] = j[x] - d[x]
			}
			if s.Contains(q) {
				pred[i] = g.At(q)
			} else {
				pred[i] = b(q)
			}
		}
		g.Set(j, k.Eval(j, pred))
		return true
	})
	return g, nil
}

// MaxAbsDiff returns the maximum absolute element difference between two
// grids over the same space.
func MaxAbsDiff(a, b *Grid) (float64, error) {
	if !a.Space.Equal(b.Space) {
		return 0, fmt.Errorf("stencil: grids cover different spaces")
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m, nil
}
