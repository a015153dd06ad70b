package runner

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mp"
	"repro/internal/stencil"
)

// gridsByteIdentical compares two gathered grids bit-for-bit (the restart
// guarantee is exact, not within-epsilon).
func gridsByteIdentical(t *testing.T, got, want *stencil.Grid) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("grid sizes differ: %d vs %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("grids differ at linear index %d: %x vs %x",
				i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

func TestCheckpointFileNaming(t *testing.T) {
	path := CheckpointFile("d", 3, 12)
	if path != filepath.Join("d", "ck-r0003-t00000012.bin") {
		t.Fatalf("unexpected checkpoint path %q", path)
	}
}

func TestLatestCheckpointEmpty(t *testing.T) {
	tile, path, err := LatestCheckpoint(t.TempDir(), 0)
	if err != nil || tile != 0 || path != "" {
		t.Fatalf("empty dir: tile=%d path=%q err=%v", tile, path, err)
	}
	// A directory that does not exist yet is also "no checkpoints", not an
	// error — the launcher polls before the ranks create anything.
	tile, _, err = LatestCheckpoint(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil || tile != 0 {
		t.Fatalf("missing dir: tile=%d err=%v", tile, err)
	}
}

// checkpointAll2D runs cfg on n ranks and returns the gathered grid.
func checkpointAll2D(t *testing.T, n int, cfg Config2D) *stencil.Grid {
	t.Helper()
	grid, _ := runAll2D(t, n, cfg)
	return grid
}

// tiles2D is the number of tiles each rank of a 2-D run executes.
func tiles2D(cfg Config2D) int64 { return cfg.layout(1).tiles() }

// ckGrid is one grid the checkpoint tests cover on four ranks: the 2-D
// strip, and the 3-D grid on a 2×2 processor grid, where rank 3 receives a
// west and a north face every tile, so both are in flight at a restart
// boundary.
type ckGrid struct {
	name string
	tile int64 // default tile size
	n    int64 // extent of the tiled axis
	// run executes the grid in mode with the given tile size and
	// checkpoint settings, returning rank 0's gathered grid and the stats.
	run func(t *testing.T, mode Mode, tile int64, cc CheckpointConfig) (*stencil.Grid, []Stats)
}

const ckRanks = 4

func ckGrids() []ckGrid {
	return []ckGrid{
		{"2d", 10, 60, func(t *testing.T, mode Mode, tile int64, cc CheckpointConfig) (*stencil.Grid, []Stats) {
			cfg := base2D(mode)
			cfg.S1, cfg.Checkpoint = tile, cc
			return runAll2D(t, ckRanks, cfg)
		}},
		{"3d", 4, 32, func(t *testing.T, mode Mode, tile int64, cc CheckpointConfig) (*stencil.Grid, []Stats) {
			cfg := baseConfig(mode)
			cfg.V, cfg.Checkpoint = tile, cc
			return runAll(t, cfg)
		}},
	}
}

// tiles is the number of tiles each rank executes at tile size tile.
func (g ckGrid) tiles(tile int64) int64 { return (g.n + tile - 1) / tile }

// eachGridMode runs fn as a subtest for both modes on every grid.
func eachGridMode(t *testing.T, fn func(t *testing.T, g ckGrid, mode Mode)) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, g := range ckGrids() {
				t.Run(g.name, func(t *testing.T) { fn(t, g, mode) })
			}
		})
	}
}

func TestCheckpointRestoreByteIdentical(t *testing.T) {
	eachGridMode(t, func(t *testing.T, g ckGrid, mode Mode) {
		ref, _ := g.run(t, mode, g.tile, CheckpointConfig{})

		// A checkpointing run leaves snapshots behind...
		dir := t.TempDir()
		cc := CheckpointConfig{Dir: dir, Every: 2}
		grid, stats := g.run(t, mode, g.tile, cc)
		gridsByteIdentical(t, grid, ref)
		for rank, st := range stats {
			if st.Checkpoints == 0 || st.CheckpointBytes == 0 {
				t.Fatalf("rank %d wrote no checkpoints: %+v", rank, st)
			}
			if tile, _, err := LatestCheckpoint(dir, rank); err != nil || tile == 0 {
				t.Fatalf("rank %d has no snapshot on disk (tile=%d err=%v)", rank, tile, err)
			}
		}

		// ...and a restore run resumes from the newest boundary,
		// recomputing only the tail, yet the result is bit-identical.
		cc.Restore = true
		restored, rstats := g.run(t, mode, g.tile, cc)
		gridsByteIdentical(t, restored, ref)
		for rank, st := range rstats {
			if int64(st.Tiles) >= g.tiles(g.tile) {
				t.Errorf("rank %d recomputed all %d tiles — restore did not resume", rank, st.Tiles)
			}
		}
	})
}

// flipLastByte corrupts a snapshot's payload so only the CRC can tell.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptGenerationFallsBack: a bit-flipped newest snapshot
// must be rejected by the CRC and restore must fall back to the previous
// generation — still bit-identical.
func TestCheckpointCorruptGenerationFallsBack(t *testing.T) {
	eachGridMode(t, func(t *testing.T, g ckGrid, mode Mode) {
		ref, _ := g.run(t, mode, g.tile, CheckpointConfig{})
		dir := t.TempDir()
		cc := CheckpointConfig{Dir: dir, Every: 2}
		if grid, _ := g.run(t, mode, g.tile, cc); grid == nil {
			t.Fatal("no grid")
		}
		// Flip one payload byte in rank 1's newest snapshot.
		tile, path, err := LatestCheckpoint(dir, 1)
		if err != nil || tile == 0 {
			t.Fatalf("no snapshot to corrupt: tile=%d err=%v", tile, err)
		}
		flipLastByte(t, path)

		cc.Restore = true
		restored, stats := g.run(t, mode, g.tile, cc)
		gridsByteIdentical(t, restored, ref)
		// Every rank resumed from the boundary before the corrupt one.
		for rank, st := range stats {
			if want := g.tiles(g.tile) - (tile - cc.Every); int64(st.Tiles) != want {
				t.Errorf("rank %d recomputed %d tiles, want %d (fallback generation)", rank, st.Tiles, want)
			}
		}
	})
}

// TestCheckpointAllCorruptMeansFreshStart: when one rank has nothing valid
// at all, the AllReduce(min) forces a clean fresh start for everyone.
func TestCheckpointAllCorruptMeansFreshStart(t *testing.T) {
	const n = 2
	ref := checkpointAll2D(t, n, base2D(Overlapped))
	dir := t.TempDir()
	cfg := base2D(Overlapped)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ck-r0001-") {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg.Checkpoint.Restore = true
	restored, stats := runAll2D(t, n, cfg)
	gridsByteIdentical(t, restored, ref)
	full := tiles2D(base2D(Overlapped))
	for rank, st := range stats {
		if int64(st.Tiles) != full {
			t.Errorf("rank %d computed %d tiles, want full %d (fresh start)", rank, st.Tiles, full)
		}
	}
}

// TestCheckpointGeometryMismatchRejected: a snapshot from a different run
// shape must not load, and neither must one labelled with the 2-D-only
// version 1 of the file layout.
func TestCheckpointGeometryMismatchRejected(t *testing.T) {
	eachGridMode(t, func(t *testing.T, g ckGrid, mode Mode) {
		dir := t.TempDir()
		cc := CheckpointConfig{Dir: dir, Every: 2}
		if grid, _ := g.run(t, mode, g.tile, cc); grid == nil {
			t.Fatal("no grid")
		}
		const other = 5 // different tiling: snapshots are incompatible
		want, _ := g.run(t, mode, other, CheckpointConfig{})
		cc.Restore = true
		restored, stats := g.run(t, mode, other, cc)
		gridsByteIdentical(t, restored, want)
		for rank, st := range stats {
			if int64(st.Tiles) != g.tiles(other) {
				t.Errorf("rank %d resumed from an incompatible snapshot (%d tiles)", rank, st.Tiles)
			}
		}

		// Relabel every matching snapshot as version 1 with a valid CRC:
		// only the version check can refuse them, so the run starts fresh.
		v1 := t.TempDir()
		if grid, _ := g.run(t, mode, g.tile, CheckpointConfig{Dir: v1, Every: 2}); grid == nil {
			t.Fatal("no grid")
		}
		paths, err := filepath.Glob(filepath.Join(v1, "ck-*.bin"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no snapshots to relabel (err=%v)", err)
		}
		for _, path := range paths {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(buf[4:8], 1)
			binary.BigEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[12:]))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ref, _ := g.run(t, mode, g.tile, CheckpointConfig{})
		restored, stats = g.run(t, mode, g.tile, CheckpointConfig{Dir: v1, Restore: true})
		gridsByteIdentical(t, restored, ref)
		for rank, st := range stats {
			if ri := st.Restore; ri.Reason != RestoreFreshAllCorrupt || int64(st.Tiles) != g.tiles(g.tile) {
				t.Errorf("rank %d restored from version-1 snapshots: %+v after %d tiles", rank, ri, st.Tiles)
			}
		}
	})
}

func TestCheckpointConfigValidate(t *testing.T) {
	cfg := base2D(Blocking)
	cfg.Checkpoint = CheckpointConfig{Every: 2} // no dir
	if cfg.Validate(2) == nil {
		t.Error("checkpoint interval without directory accepted")
	}
	cfg.Checkpoint = CheckpointConfig{Restore: true}
	if cfg.Validate(2) == nil {
		t.Error("restore without directory accepted")
	}
	cfg.Checkpoint = CheckpointConfig{Dir: "d", Every: -1}
	if cfg.Validate(2) == nil {
		t.Error("negative interval accepted")
	}
}

// TestRunnerAbortsWorldOnError: a rank failing mid-run poisons the world so
// its peers unwind with ErrAborted instead of waiting forever. The failure
// is injected by giving one rank a deadline-bearing comm and no partner
// traffic is NOT possible in lockstep runs, so instead use a faulty config:
// rank 1 runs with a mismatched tag space via a wrapper that fails Send.
func TestRunnerAbortsWorldOnError(t *testing.T) {
	const n = 3
	cfg := base2D(Blocking)
	err := mp.Launch(n, func(c mp.Comm) error {
		if c.Rank() == 1 {
			c = failingComm{Comm: c}
		}
		_, _, err := Run2D(c, cfg)
		return err
	})
	if err == nil {
		t.Fatal("run with failing rank succeeded")
	}
	// The launcher reports the first failing rank; whichever it is, the
	// error chain must be either the injected failure or the abort.
	if !strings.Contains(err.Error(), "injected send failure") &&
		!strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected failure chain: %v", err)
	}
}

type failingComm struct{ mp.Comm }

type errInjected struct{}

func (errInjected) Error() string { return "injected send failure" }

func (f failingComm) Send(dst, tag int, data []byte) error {
	return errInjected{}
}

func (f failingComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	return nil, errInjected{}
}

// TestCheckpointAllGenerationsCorruptTypedReason: when EVERY generation of
// EVERY rank is corrupt, restore must fall back to a from-scratch run with
// the typed RestoreFreshAllCorrupt reason — not an error — and still
// produce the byte-identical grid.
func TestCheckpointAllGenerationsCorruptTypedReason(t *testing.T) {
	const n = 2
	ref := checkpointAll2D(t, n, base2D(Blocking))
	dir := t.TempDir()
	cfg := base2D(Blocking)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ck-") && strings.HasSuffix(e.Name(), ".bin") {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 20); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no snapshots to corrupt")
	}
	cfg.Checkpoint.Restore = true
	restored, stats := runAll2D(t, n, cfg)
	gridsByteIdentical(t, restored, ref)
	full := tiles2D(base2D(Blocking))
	for rank, st := range stats {
		if int64(st.Tiles) != full {
			t.Errorf("rank %d computed %d tiles, want full %d (fresh start)", rank, st.Tiles, full)
		}
		ri := st.Restore
		if !ri.Requested || ri.Reason != RestoreFreshAllCorrupt || ri.StartTile != 0 {
			t.Errorf("rank %d restore info = %+v, want requested fresh-all-corrupt at tile 0", rank, ri)
		}
	}
}

// TestCheckpointRestoreReasonsAndWaste: the typed outcome and the provable
// wasted-tile count across the three interesting shapes — a clean resume,
// a rank rolled back past a corrupt newest generation, and a peer-forced
// fresh start.
func TestCheckpointRestoreReasonsAndWaste(t *testing.T) {
	eachGridMode(t, testRestoreReasonsAndWaste)
}

func testRestoreReasonsAndWaste(t *testing.T, g ckGrid, mode Mode) {
	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := g.run(t, mode, g.tile, cc); grid == nil {
		t.Fatal("no grid")
	}
	tile, path, err := LatestCheckpoint(dir, 1)
	if err != nil || tile == 0 {
		t.Fatalf("no snapshot: tile=%d err=%v", tile, err)
	}

	// Clean resume: everyone restarts at the newest boundary, and the
	// recomputation is exactly what the snapshots prove was already done —
	// nothing, since every rank restarts at its own newest generation.
	cc.Restore = true
	_, stats := g.run(t, mode, g.tile, cc)
	for rank, st := range stats {
		ri := st.Restore
		if ri.Reason != RestoreResumed || ri.StartTile != tile || ri.WastedTiles != 0 {
			t.Errorf("rank %d clean resume info = %+v, want resumed at %d with 0 wasted", rank, ri, tile)
		}
	}

	// Corrupt rank 1's newest generation: the world rolls back one
	// boundary, so every OTHER rank provably recomputes Every tiles.
	flipLastByte(t, path)
	_, stats = g.run(t, mode, g.tile, cc)
	for rank, st := range stats {
		ri := st.Restore
		wantWaste := cc.Every
		if rank == 1 {
			wantWaste = 0 // its own newest valid IS the agreed boundary
		}
		if ri.Reason != RestoreResumed || ri.StartTile != tile-cc.Every || ri.WastedTiles != wantWaste {
			t.Errorf("rank %d rollback info = %+v, want resumed at %d with %d wasted",
				rank, ri, tile-cc.Every, wantWaste)
		}
	}

	// Wipe rank 2 entirely: a peer with nothing forces tile 0 on everyone;
	// survivors waste everything their snapshots had proven.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ck-r0002-") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	// (The rollback run above re-checkpointed, so every surviving rank's
	// newest valid generation is the full boundary `tile` again.)
	_, stats = g.run(t, mode, g.tile, cc)
	for rank, st := range stats {
		ri := st.Restore
		switch rank {
		case 2:
			if ri.Reason != RestoreFreshNoSnapshot || ri.WastedTiles != 0 {
				t.Errorf("rank 2 info = %+v, want fresh-no-snapshot", ri)
			}
		default:
			if ri.Reason != RestoreFreshPeerBehind || ri.WastedTiles != tile {
				t.Errorf("rank %d info = %+v, want fresh-peer-behind wasting %d", rank, ri, tile)
			}
		}
		if ri.StartTile != 0 {
			t.Errorf("rank %d start tile %d, want 0", rank, ri.StartTile)
		}
	}
}

// TestCheckpointRestoreUnderFaultPlan: a fault plan active at restore time
// (injected delivery delays riding the restore AllReduce and the resumed
// tile traffic) must not break the agreement or the bit-exactness.
func TestCheckpointRestoreUnderFaultPlan(t *testing.T) {
	const n = 4
	ref := checkpointAll2D(t, n, base2D(Overlapped))
	dir := t.TempDir()
	cfg := base2D(Overlapped)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	cfg.Checkpoint.Restore = true
	var mu sync.Mutex
	var grid *stencil.Grid
	stats := make([]Stats, n)
	err := mp.Launch(n, func(c mp.Comm) error {
		f := mp.WithFaults(c, 29)
		f.DelayProb = 0.4
		f.Delay = time.Millisecond
		l, st, err := Run2D(f, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		stats[c.Rank()] = st
		mu.Unlock()
		g, err := Gather2D(f, cfg, l)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			grid = g
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gridsByteIdentical(t, grid, ref)
	for rank, st := range stats {
		if st.Restore.Reason != RestoreResumed {
			t.Errorf("rank %d under faults: restore reason %v, want resumed", rank, st.Restore.Reason)
		}
	}
}

// TestCheckpointOrphanTempCleanup: stale .tmp files left by a crash
// mid-write are removed at the next run's start, and the cleanup must not
// touch finished snapshots or other ranks' temps.
func TestCheckpointOrphanTempCleanup(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	orphan0 := filepath.Join(dir, "ck-r0000-t00000099.bin.tmp")
	orphan9 := filepath.Join(dir, "ck-r0009-t00000004.bin.tmp") // rank outside this world
	for _, p := range []string{orphan0, orphan9} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := base2D(Blocking)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	if _, err := os.Stat(orphan0); !os.IsNotExist(err) {
		t.Errorf("rank 0's orphan temp survived the run (err=%v)", err)
	}
	if _, err := os.Stat(orphan9); err != nil {
		t.Errorf("another rank's temp was removed: %v", err)
	}
	if tile, _, err := LatestCheckpoint(dir, 0); err != nil || tile == 0 {
		t.Errorf("finished snapshots missing after cleanup: tile=%d err=%v", tile, err)
	}
}
