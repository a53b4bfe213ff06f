package memlimit_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
	"gogreen/internal/rphmine"
	"gogreen/internal/testutil"
)

// mineLimited runs the memory-limited compressed miner and returns the set.
func mineLimited(t *testing.T, cdb *core.CDB, min int, budget int64, eng core.CDBMiner) mining.PatternSet {
	t.Helper()
	var c mining.Collector
	if err := memlimit.MineCDB(cdb, min, memlimit.Config{Budget: budget, TempDir: t.TempDir(), Engine: eng}, &c); err != nil {
		t.Fatalf("MineCDB(budget=%d): %v", budget, err)
	}
	s, err := c.Set()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTinyBudgetMatchesOracle forces deep disk partitioning by using budgets
// far below the data size; results must still match Apriori exactly.
func TestTinyBudgetMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for rep := 0; rep < 8; rep++ {
		db := testutil.RandomDB(r, 30+r.Intn(80), 5+r.Intn(12), 2+r.Intn(8))
		fp := testutil.Oracle(t, db, 4).Slice()
		cdb := core.Compress(db, fp, core.MCP)
		for _, min := range []int{2, 3} {
			want := testutil.Oracle(t, db, min)
			for _, budget := range []int64{1 << 30, 4096, 512} {
				for _, eng := range []core.CDBMiner{rphmine.New(), core.Naive{}} {
					got := mineLimited(t, cdb, min, budget, eng)
					if !got.Equal(want) {
						t.Fatalf("budget=%d engine=%s min=%d: %v",
							budget, eng.Name(), min, got.Diff(want, 10))
					}
				}
			}
		}
	}
}

// countingEngine wraps a leaf engine and counts the partitions it mines.
type countingEngine struct {
	core.CDBMiner
	calls *int
}

func (e countingEngine) MineEncoded(ctx context.Context, scratch any, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	*e.calls++
	return e.CDBMiner.MineEncoded(ctx, scratch, blocks, loose, flist, prefix, minCount, sink)
}

// TestConfiguredEngineMinesLeaves proves Config.Engine is the engine that
// mines the in-budget partitions: a counting wrapper sees every leaf, and
// the result still matches the oracle.
func TestConfiguredEngineMinesLeaves(t *testing.T) {
	db := testutil.PaperDB()
	cdb := core.Compress(db, testutil.Oracle(t, db, 3).Slice(), core.MCP)
	want := testutil.Oracle(t, db, 2)
	for _, budget := range []int64{1 << 30, 64} {
		calls := 0
		got := mineLimited(t, cdb, 2, budget, countingEngine{CDBMiner: core.Naive{}, calls: &calls})
		if !got.Equal(want) {
			t.Fatalf("budget=%d: %v", budget, got.Diff(want, 20))
		}
		if calls == 0 {
			t.Errorf("budget=%d: the configured engine mined no partition", budget)
		}
		if budget == 64 && calls < 2 {
			t.Errorf("budget=64: the configured engine mined %d partitions, want several", calls)
		}
	}
}

// TestRegistryEnginesTinyBudget runs every recycled registry engine, serial
// and par-*, as the leaf miner under budgets that force deep partitioning;
// every result must match the Apriori oracle.
func TestRegistryEnginesTinyBudget(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	db := testutil.RandomDB(r, 90, 12, 7)
	cdb := core.Compress(db, testutil.Oracle(t, db, 5).Slice(), core.MCP)
	want := testutil.Oracle(t, db, 2)
	for _, d := range engine.Descriptors() {
		if d.Kind != engine.Recycled {
			continue
		}
		eng, err := engine.NewEngine(d.Name, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{4096, 512} {
			if got := mineLimited(t, cdb, 2, budget, eng); !got.Equal(want) {
				t.Errorf("%s budget=%d: %v", d.Name, budget, got.Diff(want, 10))
			}
		}
	}
}

// TestBaselineTinyBudget does the same for the uncompressed driver.
func TestBaselineTinyBudget(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for rep := 0; rep < 8; rep++ {
		db := testutil.RandomDB(r, 30+r.Intn(80), 5+r.Intn(12), 2+r.Intn(8))
		for _, min := range []int{2, 4} {
			want := testutil.Oracle(t, db, min)
			for _, budget := range []int64{1 << 30, 4096, 512} {
				var c mining.Collector
				err := memlimit.MineDB(db, min, memlimit.Config{Budget: budget, TempDir: t.TempDir()}, &c)
				if err != nil {
					t.Fatalf("MineDB(budget=%d): %v", budget, err)
				}
				got, err := c.Set()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("budget=%d min=%d: %v", budget, min, got.Diff(want, 10))
				}
			}
		}
	}
}

// TestPaperExampleUnderLimit mines the worked example with a budget so small
// that everything spills.
func TestPaperExampleUnderLimit(t *testing.T) {
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 3).Slice()
	cdb := core.Compress(db, fp, core.MCP)
	want := testutil.Oracle(t, db, 2)
	got := mineLimited(t, cdb, 2, 64, nil)
	if !got.Equal(want) {
		t.Fatalf("paper example under 64B budget: %v", got.Diff(want, 20))
	}
}

// TestBudgetTooSmall: a single unsplittable tuple cannot fit, and the error
// says so instead of looping forever.
func TestBudgetTooSmall(t *testing.T) {
	tx := make([][]dataset.Item, 10)
	for i := range tx {
		tx[i] = []dataset.Item{7}
	}
	db := dataset.New(tx)
	err := memlimit.MineDB(db, 2, memlimit.Config{Budget: 1, TempDir: t.TempDir()},
		mining.SinkFunc(func([]dataset.Item, int) {}))
	// A single-item database projects to nothing, so it either finishes
	// (items emitted at partition level) or reports the budget error; it
	// must not hang. Both outcomes are acceptable here, but an unexpected
	// error is not.
	if err != nil && err != memlimit.ErrBudgetTooSmall {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBadMinSupport(t *testing.T) {
	db := testutil.PaperDB()
	sink := mining.SinkFunc(func([]dataset.Item, int) {})
	if err := memlimit.MineDB(db, 0, memlimit.Config{Budget: 1 << 20}, sink); err != mining.ErrBadMinSupport {
		t.Errorf("MineDB: got %v", err)
	}
	cdb := core.Compress(db, nil, core.MCP)
	if err := memlimit.MineCDB(cdb, 0, memlimit.Config{Budget: 1 << 20}, sink); err != mining.ErrBadMinSupport {
		t.Errorf("MineCDB: got %v", err)
	}
}

// TestBadTempDir surfaces spill-directory failures as errors.
func TestBadTempDir(t *testing.T) {
	db := testutil.PaperDB()
	err := memlimit.MineDB(db, 1, memlimit.Config{Budget: 1, TempDir: filepath.Join(t.TempDir(), "missing", "nested")},
		mining.SinkFunc(func([]dataset.Item, int) {}))
	if err == nil {
		t.Fatal("expected error for unusable temp dir")
	}
}

// TestTempDirCleanup: no partition files survive a run.
func TestTempDirCleanup(t *testing.T) {
	dir := t.TempDir()
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 3).Slice()
	cdb := core.Compress(db, fp, core.MCP)
	var c mining.Collector
	if err := memlimit.MineCDB(cdb, 1, memlimit.Config{Budget: 64, TempDir: dir}, &c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("temp dir not cleaned: %d entries left", len(entries))
	}
}
