package rptreeproj_test

import (
	"context"
	"math/rand"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/rptreeproj"
	"gogreen/internal/testutil"
)

func newEngine() core.CDBMiner { return rptreeproj.New() }

func TestPaperExample(t *testing.T) {
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 3).Slice()
	for _, strat := range []core.Strategy{core.MCP, core.MLP} {
		rec := &core.Recycler{FP: fp, Strategy: strat, Engine: newEngine()}
		for min := 1; min <= 5; min++ {
			testutil.CheckAgainstOracle(t, rec, db, min)
		}
	}
}

// TestRandomized compresses at a random ξ_old and mines at assorted ξ_new,
// always matching the Apriori oracle.
func TestRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for rep := 0; rep < 25; rep++ {
		db := testutil.RandomDB(r, 20+r.Intn(120), 4+r.Intn(18), 1+r.Intn(11))
		oldMin := 2 + r.Intn(9)
		fp := testutil.Oracle(t, db, oldMin).Slice()
		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			rec := &core.Recycler{FP: fp, Strategy: strat, Engine: newEngine()}
			for _, newMin := range []int{1, 2, oldMin - 1, oldMin + 2} {
				if newMin < 1 {
					continue
				}
				testutil.CheckAgainstOracle(t, rec, db, newMin)
			}
		}
	}
}

// TestNoRecycledPatterns: mining a CDB of only loose tuples degenerates to
// plain pseudo-projection mining and stays exact.
func TestNoRecycledPatterns(t *testing.T) {
	db := testutil.PaperDB()
	rec := &core.Recycler{FP: nil, Strategy: core.MCP, Engine: newEngine()}
	testutil.CheckAgainstOracle(t, rec, db, 2)
}

// TestDenseSingleGroup exercises the Lemma 3.1 path hard: a database where
// one long pattern dominates every tuple.
func TestDenseSingleGroup(t *testing.T) {
	var tx [][]dataset.Item
	long := []dataset.Item{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 40; i++ {
		tx = append(tx, long)
	}
	tx = append(tx, []dataset.Item{0, 9}, []dataset.Item{1, 9})
	db := dataset.New(tx)
	fp := testutil.Oracle(t, db, 40).Slice()
	rec := &core.Recycler{FP: fp, Strategy: core.MCP, Engine: newEngine()}
	testutil.CheckAgainstOracle(t, rec, db, 40)
	testutil.CheckAgainstOracle(t, rec, db, 2)
	testutil.CheckAgainstOracle(t, rec, db, 1)
}

func TestBadMinSupport(t *testing.T) {
	cdb := core.Compress(dataset.New(nil), nil, core.MCP)
	err := core.MineCDB(context.Background(), newEngine(), cdb, 0, mining.SinkFunc(func([]dataset.Item, int) {}))
	if err != mining.ErrBadMinSupport {
		t.Errorf("got %v, want ErrBadMinSupport", err)
	}
}

func TestEmptyCDB(t *testing.T) {
	cdb := core.Compress(dataset.New(nil), nil, core.MCP)
	var c mining.Collector
	if err := core.MineCDB(context.Background(), newEngine(), cdb, 1, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Patterns) != 0 {
		t.Errorf("empty CDB yielded %d patterns", len(c.Patterns))
	}
}
