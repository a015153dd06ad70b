package runner

import (
	"fmt"

	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// The two run configurations. Each builds the shared grid description and
// checks only its own shape rules; everything after that is one executor.

// Config describes one run of the paper's Section 5 experiment: the 3-D
// stencil over an I×J×K space on a PI×PJ processor grid, tiled
// (I/PI)×(J/PJ)×V with every k-tile of a column mapped to one rank.
type Config struct {
	Grid     model.Grid3D
	V        int64 // tile height along k
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
	// Checkpoint enables periodic snapshots and restart (see checkpoint.go).
	Checkpoint CheckpointConfig
}

// Validate checks a Config against a communicator size. Only
// nearest-neighbour unit dependences are supported: the ghost exchange
// carries exactly the i- and j-faces.
func (cfg Config) Validate(commSize int) error {
	if err := cfg.Grid.Validate(); err != nil {
		return err
	}
	if int64(commSize) != cfg.Grid.PI*cfg.Grid.PJ {
		return fmt.Errorf("runner: communicator has %d ranks, grid wants %d×%d = %d",
			commSize, cfg.Grid.PI, cfg.Grid.PJ, cfg.Grid.PI*cfg.Grid.PJ)
	}
	return cfg.layout().validate(ilmath.V(1, 0, 0), ilmath.V(0, 1, 0), ilmath.V(0, 0, 1))
}

// layout maps i and j onto the processor grid and tiles k by V.
func (cfg Config) layout() grid {
	g := cfg.Grid
	return grid{
		outer: []axis{{dim: 0, n: g.I, procs: g.PI}, {dim: 1, n: g.J, procs: g.PJ}},
		tiled: 2, n: g.K, tile: cfg.V,
		kernel: cfg.Kernel, bound: cfg.Boundary, mode: cfg.Mode, ckpt: cfg.Checkpoint,
	}
}

// Config2D describes one run of the paper's Example 1 loop shape: an
// I1×I2 iteration space with dependences ⊆ {(1,1),(1,0),(0,1)}, tiled
// along dimension 0 by S1. The ranks split the I2 columns into balanced
// strips (the first I2 mod ranks one column wider) and each executes its
// column of tiles bottom-up, the paper's "all tiles along a certain
// dimension are mapped to the same processor". Every face carries one
// corner row below the tile for the diagonal dependence — S1+1 values per
// tile, exactly as real stencil codes ship it.
type Config2D struct {
	I1, I2   int64 // iteration space extents
	S1       int64 // tile side along dim 0 (local steps: ceil(I1/S1))
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
	// Checkpoint enables periodic snapshots and restart (see checkpoint.go).
	Checkpoint CheckpointConfig
}

// Validate checks the configuration against the communicator size: every
// rank must own at least one column.
func (cfg Config2D) Validate(commSize int) error {
	if cfg.I1 <= 0 || cfg.I2 <= 0 {
		return fmt.Errorf("runner: non-positive space %dx%d", cfg.I1, cfg.I2)
	}
	if commSize <= 0 || int64(commSize) > cfg.I2 {
		return fmt.Errorf("runner: %d ranks for %d columns", commSize, cfg.I2)
	}
	return cfg.layout(commSize).validate(ilmath.V(1, 0), ilmath.V(0, 1), ilmath.V(1, 1))
}

// layout maps i2 onto the ranks and tiles i1 by S1.
func (cfg Config2D) layout(commSize int) grid {
	return grid{
		outer: []axis{{dim: 1, n: cfg.I2, procs: int64(commSize)}},
		tiled: 0, n: cfg.I1, tile: cfg.S1, corner: 1,
		kernel: cfg.Kernel, bound: cfg.Boundary, mode: cfg.Mode, ckpt: cfg.Checkpoint,
	}
}

// Run2D executes a 2-D configuration; see Run.
func Run2D(c mp.Comm, cfg Config2D) (*Local2D, Stats, error) { return Run(c, cfg) }

// Gather2D assembles a 2-D run's grid on rank 0; see Gather.
func Gather2D(c mp.Comm, cfg Config2D, l *Local2D) (*stencil.Grid, error) {
	return Gather(c, cfg, l)
}
