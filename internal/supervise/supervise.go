// Package supervise owns rank lifecycles end to end: it launches one
// process (or surrogate) per rank, watches for failures, tears the world
// down, and relaunches every rank under a bumped epoch with restore
// enabled — turning the manual notice/relaunch/-restore loop into
// automatic recovery.
//
// Detection is layered: inside a world the mp heartbeats abort surviving
// ranks when a peer goes silent, so a single crash makes every process
// exit; the supervisor's own detection is the observation of those exits.
// Every relaunch carries a fresh epoch (stamped into the mp connect
// handshake and reserved-tag traffic), so a process that outlived its
// declared death cannot poison the rebuilt world.
//
// Recovery is bounded: each rank carries a restart budget, restarts back
// off exponentially with a deterministic schedule, and an optional overall
// deadline caps the whole supervised run — a persistently failing rank
// converges to a clean typed failure (*BudgetError, *DeadlineError)
// instead of a restart loop.
//
// Recovery restores from the snapshots of internal/runner's shared tile
// loop, so it covers both grids that executor runs: the paper's 3-D
// Section 5 grid and Example 1's 2-D strip.
package supervise

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/runner"
)

// Sentinels matched (via errors.Is) by the typed failures below.
var (
	// ErrBudgetExhausted: some rank crashed more than Config.MaxRestarts
	// times; the supervisor refuses to restart it again.
	ErrBudgetExhausted = errors.New("supervise: restart budget exhausted")
	// ErrDeadline: the supervised run (including restarts and backoff)
	// exceeded Config.Deadline.
	ErrDeadline = errors.New("supervise: deadline exceeded")
)

// BudgetError is the typed world-level failure for a rank that used up its
// restart budget. errors.Is(err, ErrBudgetExhausted) matches it.
type BudgetError struct {
	Rank     int   // the rank that kept failing
	Restarts int   // restarts already spent on it
	Cause    error // its final exit error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("supervise: rank %d exhausted its restart budget (%d restarts): %v",
		e.Rank, e.Restarts, e.Cause)
}

func (e *BudgetError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrBudgetExhausted) match any BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// DeadlineError is the typed world-level failure for a supervised run that
// outlived its configured deadline. errors.Is(err, ErrDeadline) matches it.
type DeadlineError struct {
	Deadline time.Duration // the configured cap
	Epoch    uint32        // the epoch in flight when time ran out
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("supervise: run exceeded its %v deadline (epoch %d)", e.Deadline, e.Epoch)
}

// Is makes errors.Is(err, ErrDeadline) match any DeadlineError.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

// Proc is one supervised rank's running instance. Wait must be safe to
// call exactly once and block until exit; Kill must be safe to call
// concurrently with Wait and after exit.
type Proc interface {
	// Wait blocks until the instance exits. nil means a clean exit.
	Wait() error
	// Kill force-terminates the instance (SIGKILL semantics).
	Kill() error
}

// Spec tells Launch what to start.
type Spec struct {
	// Rank in [0, Size).
	Rank int
	// Epoch is the world generation; stamp it into mp.TCPOptions.Epoch.
	Epoch uint32
	// Restore: the rank must resume from checkpoints (true on every epoch
	// after the first, and on the first when the caller asked for it).
	Restore bool
	// Attempt counts world launches so far (0 for the first epoch).
	Attempt int
}

// Config drives Run.
type Config struct {
	// Size is the number of ranks.
	Size int
	// Launch starts one rank. Called Size times per epoch.
	Launch func(Spec) (Proc, error)
	// MaxRestarts is the per-rank restart budget (0 means no recovery:
	// the first crash is terminal).
	MaxRestarts int
	// Backoff is the base restart delay; restart k of a rank waits
	// Backoff × 2^(k−1), capped at MaxBackoff. Deterministic — no jitter —
	// so budget exhaustion lands within a computable bound.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default: 16×Backoff).
	MaxBackoff time.Duration
	// Grace bounds teardown: after a failure, peers that have not exited
	// on their own within Grace are killed (default 5s).
	Grace time.Duration
	// Deadline caps the whole supervised run, restarts and backoff
	// included (0 = unbounded).
	Deadline time.Duration
	// FirstEpoch is the epoch of the first launch (default 1, so the mp
	// zero-value epoch never collides with a supervised world).
	FirstEpoch uint32
	// Restore makes even the first epoch restore from checkpoints.
	Restore bool
	// CheckpointDir, when set, is scanned between epochs to account the
	// provable wasted recomputation per incident (see Incident).
	CheckpointDir string
	// OnIncident, when non-nil, observes each failure+recovery cycle as
	// it completes (before the next epoch launches).
	OnIncident func(Incident)
}

func (cfg *Config) validate() error {
	if cfg.Size <= 0 {
		return fmt.Errorf("supervise: non-positive world size %d", cfg.Size)
	}
	if cfg.Launch == nil {
		return fmt.Errorf("supervise: nil Launch")
	}
	if cfg.MaxRestarts < 0 {
		return fmt.Errorf("supervise: negative restart budget %d", cfg.MaxRestarts)
	}
	if cfg.Backoff < 0 || cfg.MaxBackoff < 0 || cfg.Grace < 0 || cfg.Deadline < 0 {
		return fmt.Errorf("supervise: negative duration in config")
	}
	return nil
}

// Incident is one observed failure+recovery cycle.
type Incident struct {
	// Epoch that failed.
	Epoch uint32
	// Victim is the rank blamed: the chronologically first crash-like
	// exit, falling back to the first failure of any kind.
	Victim int
	// Cause is the victim's exit error.
	Cause error
	// Detect: first exit → whole world confirmed down.
	Detect time.Duration
	// Backoff charged before the relaunch.
	Backoff time.Duration
	// Restore: world down → next epoch launched (includes Backoff).
	Restore time.Duration
	// MTTR: first exit → next epoch launched.
	MTTR time.Duration
	// WastedTiles is the provable recomputation: the sum over ranks of
	// checkpoint boundaries beyond the minimum the rebuilt world restarts
	// from. 0 when Config.CheckpointDir is unset.
	WastedTiles int64
}

// Result summarizes a supervised run.
type Result struct {
	// Epochs launched (incidents + 1 on success).
	Epochs int
	// Incidents, in order.
	Incidents []Incident
	// RestartsPerRank counts how many restarts each rank was blamed for.
	RestartsPerRank []int
	// Elapsed is the whole supervised run, recovery included.
	Elapsed time.Duration
}

// Crashed reports whether a Proc exit looks like a crash (killed by a
// signal) rather than an orderly error exit — used to prefer the true
// victim over survivors that exited non-zero because the world aborted.
func Crashed(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled()
}

// rankExit is one observed process exit.
type rankExit struct {
	rank int
	err  error
	at   time.Time
}

// Run supervises a world to completion: launch all ranks, and on any
// failure tear the epoch down, charge the victim's budget, back off, and
// relaunch everything one epoch higher with restore enabled. Returns the
// accumulated Result; the error is nil on success, a *BudgetError or
// *DeadlineError on a typed world-level failure, or the launch error when
// a rank cannot even be started.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Grace == 0 {
		cfg.Grace = 5 * time.Second
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 16 * cfg.Backoff
	}
	if cfg.FirstEpoch == 0 {
		cfg.FirstEpoch = 1
	}

	res := &Result{RestartsPerRank: make([]int, cfg.Size)}
	start := time.Now()
	var deadline time.Time
	if cfg.Deadline > 0 {
		deadline = start.Add(cfg.Deadline)
	}
	epoch := cfg.FirstEpoch

	for attempt := 0; ; attempt++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Elapsed = time.Since(start)
			return res, &DeadlineError{Deadline: cfg.Deadline, Epoch: epoch}
		}
		procs := make([]Proc, cfg.Size)
		for r := 0; r < cfg.Size; r++ {
			p, err := cfg.Launch(Spec{
				Rank:    r,
				Epoch:   epoch,
				Restore: cfg.Restore || attempt > 0,
				Attempt: attempt,
			})
			if err != nil {
				// A rank that cannot even start leaves no world to tear
				// down beyond the ranks already running this epoch.
				for _, q := range procs[:r] {
					_ = q.Kill()
				}
				for _, q := range procs[:r] {
					_ = q.Wait()
				}
				res.Elapsed = time.Since(start)
				return res, fmt.Errorf("supervise: launch rank %d (epoch %d): %w", r, epoch, err)
			}
			procs[r] = p
		}
		res.Epochs++

		exits := waitAll(procs, cfg.Grace)
		first, ok := firstFailure(exits)
		if !ok {
			res.Elapsed = time.Since(start)
			return res, nil // every rank exited clean: done
		}
		downAt := lastExit(exits)
		victim := classifyVictim(exits)

		res.RestartsPerRank[victim.rank]++
		if res.RestartsPerRank[victim.rank] > cfg.MaxRestarts {
			res.Elapsed = time.Since(start)
			return res, &BudgetError{
				Rank:     victim.rank,
				Restarts: res.RestartsPerRank[victim.rank] - 1,
				Cause:    victim.err,
			}
		}

		backoff := backoffFor(cfg.Backoff, cfg.MaxBackoff, res.RestartsPerRank[victim.rank])
		if !deadline.IsZero() && time.Now().Add(backoff).After(deadline) {
			res.Elapsed = time.Since(start)
			return res, &DeadlineError{Deadline: cfg.Deadline, Epoch: epoch}
		}
		time.Sleep(backoff)

		inc := Incident{
			Epoch:       epoch,
			Victim:      victim.rank,
			Cause:       victim.err,
			Detect:      downAt.Sub(first.at),
			Backoff:     backoff,
			WastedTiles: wastedTiles(cfg.CheckpointDir, cfg.Size),
		}
		relaunchAt := time.Now()
		inc.Restore = relaunchAt.Sub(downAt)
		inc.MTTR = relaunchAt.Sub(first.at)
		res.Incidents = append(res.Incidents, inc)
		if cfg.OnIncident != nil {
			cfg.OnIncident(inc)
		}
		epoch++
	}
}

// waitAll collects every process exit. After the first failure, peers get
// Grace to exit on their own (the in-world abort machinery usually beats
// this comfortably); stragglers are killed so a wedged survivor cannot
// stall recovery.
func waitAll(procs []Proc, grace time.Duration) []rankExit {
	n := len(procs)
	ch := make(chan rankExit, n)
	for r, p := range procs {
		go func(r int, p Proc) {
			err := p.Wait()
			ch <- rankExit{rank: r, err: err, at: time.Now()}
		}(r, p)
	}
	exits := make([]rankExit, 0, n)
	var killTimer *time.Timer
	var killC <-chan time.Time
	for len(exits) < n {
		select {
		case e := <-ch:
			exits = append(exits, e)
			if e.err != nil && killTimer == nil {
				killTimer = time.NewTimer(grace)
				killC = killTimer.C
			}
		case <-killC:
			killC = nil
			for _, p := range procs {
				_ = p.Kill() // idempotent on the already-dead
			}
		}
	}
	if killTimer != nil {
		killTimer.Stop()
	}
	return exits
}

// firstFailure returns the chronologically first non-nil exit.
func firstFailure(exits []rankExit) (rankExit, bool) {
	var first rankExit
	found := false
	for _, e := range exits {
		if e.err == nil {
			continue
		}
		if !found || e.at.Before(first.at) {
			first, found = e, true
		}
	}
	return first, found
}

// lastExit returns the time the world was confirmed fully down.
func lastExit(exits []rankExit) time.Time {
	var last time.Time
	for _, e := range exits {
		if e.at.After(last) {
			last = e.at
		}
	}
	return last
}

// classifyVictim blames the failure on a rank: the chronologically first
// crash-like exit (a SIGKILLed victim's Wait returns almost instantly,
// while survivors need at least a heartbeat detection interval), falling
// back to the chronologically first failure of any kind.
func classifyVictim(exits []rankExit) rankExit {
	var firstCrash, firstFail rankExit
	haveCrash, haveFail := false, false
	for _, e := range exits {
		if e.err == nil {
			continue
		}
		if !haveFail || e.at.Before(firstFail.at) {
			firstFail, haveFail = e, true
		}
		if Crashed(e.err) && (!haveCrash || e.at.Before(firstCrash.at)) {
			firstCrash, haveCrash = e, true
		}
	}
	if haveCrash {
		return firstCrash
	}
	return firstFail
}

// backoffFor is the deterministic restart delay for the k-th restart of a
// rank (k ≥ 1): base × 2^(k−1), capped at ceil.
func backoffFor(base, ceil time.Duration, k int) time.Duration {
	if base <= 0 || k <= 0 {
		return 0
	}
	d := base
	for i := 1; i < k; i++ {
		d *= 2
		if d >= ceil {
			return ceil
		}
	}
	if d > ceil {
		return ceil
	}
	return d
}

// wastedTiles scans the checkpoint directory and returns the provable
// recomputation the next restore will cause: each rank re-executes the
// tiles between the agreed minimum boundary and its own newest one. Name
// scans only (cheap, like the launcher's kill gate); the restore itself
// re-validates contents.
func wastedTiles(dir string, size int) int64 {
	if dir == "" {
		return 0
	}
	latest := make([]int64, size)
	minLatest := int64(-1)
	for r := 0; r < size; r++ {
		t, _, err := runner.LatestCheckpoint(dir, r)
		if err != nil {
			return 0
		}
		latest[r] = t
		if minLatest < 0 || t < minLatest {
			minLatest = t
		}
	}
	var wasted int64
	for _, t := range latest {
		wasted += t - minLatest
	}
	return wasted
}

// CmdProc adapts an *exec.Cmd (already Started) to Proc.
type CmdProc struct{ Cmd *exec.Cmd }

// Wait waits for the command to exit.
func (p CmdProc) Wait() error { return p.Cmd.Wait() }

// Kill force-terminates the process; a nil or already-finished process is
// not an error.
func (p CmdProc) Kill() error {
	if p.Cmd.Process == nil {
		return nil
	}
	err := p.Cmd.Process.Kill()
	if errors.Is(err, os.ErrProcessDone) {
		return nil
	}
	return err
}
