package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/runner"
	"repro/internal/stencil"
)

// verifyDeadline bounds every blocking mp wait in the verify worlds: a
// schedule bug that deadlocks a rank fails the run within this bound
// instead of hanging CI forever (the blockingdeadline contract).
const verifyDeadline = 2 * time.Minute

// runVerify executes the real executor on both grids (the paper's 3-D
// grid and Example 1's 2-D strip) under both schedules and both transports
// (eager and pure rendezvous) on the in-process fabric, and checks every
// result bit-exact against a sequential run. This is the operational proof
// that the schedules the benchmarks time are *correct* schedules.
func runVerify() error {
	fmt.Println("verify: real execution vs sequential reference")

	cfg3 := runner.Config{
		Grid:   model.Grid3D{I: 16, J: 16, K: 512, PI: 4, PJ: 4},
		V:      32,
		Kernel: stencil.Sqrt3D{},
	}
	cfg2 := runner.Config2D{I1: 400, I2: 120, S1: 10, Kernel: stencil.Sum2D{}}
	if *quick {
		cfg3.Grid.K = 128
		cfg3.V = 16
		cfg2.I1 = 100
	}
	grids := []struct {
		name, shape string
		check       func(mode runner.Mode, w mp.WorldOptions) (float64, time.Duration, error)
	}{
		{"3-D", fmt.Sprintf("%dx%dx%d V=%d", cfg3.Grid.I, cfg3.Grid.J, cfg3.Grid.K, cfg3.V),
			func(mode runner.Mode, w mp.WorldOptions) (float64, time.Duration, error) {
				cfg3.Mode = mode
				return verifyRun(int(cfg3.Grid.PI*cfg3.Grid.PJ), cfg3, w)
			}},
		{"2-D", fmt.Sprintf("%dx%d S1=%d", cfg2.I1, cfg2.I2, cfg2.S1),
			func(mode runner.Mode, w mp.WorldOptions) (float64, time.Duration, error) {
				cfg2.Mode = mode
				return verifyRun(6, cfg2, w)
			}},
	}
	transports := []struct {
		name string
		w    mp.WorldOptions
	}{
		{"eager", mp.WorldOptions{RendezvousThreshold: -1, Deadline: verifyDeadline}},
		{"rendezvous", mp.WorldOptions{RendezvousThreshold: 0, Deadline: verifyDeadline}},
	}
	for _, g := range grids {
		for _, mode := range []runner.Mode{runner.Blocking, runner.Overlapped} {
			for _, tr := range transports {
				diff, elapsed, err := g.check(mode, tr.w)
				if err != nil {
					return err
				}
				status := "OK"
				if diff != 0 {
					status = fmt.Sprintf("FAIL (max |Δ| = %g)", diff)
				}
				fmt.Printf("  %s %-10s %-10s %-16s %8v  %s\n",
					g.name, mode, tr.name, g.shape, elapsed.Round(time.Millisecond), status)
				if diff != 0 {
					return fmt.Errorf("%s %v/%s verification failed", g.name, mode, tr.name)
				}
			}
		}
	}
	fmt.Println()
	return nil
}

// verifyRun runs cfg on n in-process ranks and returns the gathered grid's
// distance from the sequential reference and the slowest rank's time.
func verifyRun[C runner.Config | runner.Config2D](n int, cfg C, opts mp.WorldOptions) (float64, time.Duration, error) {
	var grid *stencil.Grid
	var elapsed time.Duration
	var mu sync.Mutex
	err := mp.LaunchOpts(n, opts, func(c mp.Comm) error {
		l, st, err := runner.Run(c, cfg)
		if err != nil {
			return err
		}
		g, err := runner.Gather(c, cfg, l)
		if err != nil {
			return err
		}
		mu.Lock()
		if st.Elapsed > elapsed {
			elapsed = st.Elapsed
		}
		if c.Rank() == 0 {
			grid = g
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	diff, err := runner.VerifySequential(grid, cfg)
	return diff, elapsed, err
}
