// Contract tests for core.CDBMiner, the one recycled-engine interface: every
// recycled registry engine, serial and par-*, must honor the same
// MineEncoded semantics — scratch reuse, mining a projection under a
// prefix, cancellation, and threshold validation.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gogreen/internal/apriori"
	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/mining"
	"gogreen/internal/parallel"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
)

// Every engine satisfies the one contract; Recycle-FP additionally carries
// the shared-task extension the worker pool uses.
var (
	_ core.CDBMiner            = core.Naive{}
	_ core.CDBMiner            = rphmine.Miner{}
	_ core.CDBMiner            = rpfptree.Miner{}
	_ core.CDBMiner            = rptreeproj.Miner{}
	_ core.CDBMiner            = parallel.CDBMiner{}
	_ parallel.SharedTaskMiner = rpfptree.Miner{}
)

// TestEngineContract runs the core.CDBMiner contract against every recycled
// registry engine.
func TestEngineContract(t *testing.T) {
	const min = 3
	db := randomDB(7, 90, 14, 8)
	var seed, oracle mining.Collector
	if err := apriori.New().Mine(db, 2*min, &seed); err != nil {
		t.Fatal(err)
	}
	if err := apriori.New().Mine(db, min, &oracle); err != nil {
		t.Fatal(err)
	}
	cdb := core.Compress(db, seed.Patterns, core.MCP)
	flist := cdb.FList(min)
	blocks, loose := core.EncodeCDB(cdb, flist)
	want := canon(oracle.Patterns)
	if len(want) < 20 || len(blocks) == 0 {
		t.Fatalf("workload too thin: %d patterns, %d compressed groups", len(want), len(blocks))
	}

	for _, d := range engine.Descriptors() {
		if d.Kind != engine.Recycled {
			continue
		}
		eng, err := engine.NewEngine(d.Name, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(d.Name, func(t *testing.T) {
			ctx := context.Background()
			mine := func(scratch any, blocks []core.Block, loose [][]dataset.Item, prefix []dataset.Item) []string {
				t.Helper()
				var col mining.Collector
				if err := eng.MineEncoded(ctx, scratch, blocks, loose, flist, prefix, min, &col); err != nil {
					t.Fatal(err)
				}
				return canon(col.Patterns)
			}

			// A nil scratch and a reused one mine identical sets.
			diff(t, "nil scratch", mine(nil, blocks, loose, nil), want)
			sc := eng.NewScratch()
			for i := 0; i < 2; i++ {
				diff(t, fmt.Sprintf("reused scratch, run %d", i+1), mine(sc, blocks, loose, nil), want)
			}

			// Every one-item projection mined under its prefix yields exactly
			// the oracle's patterns that extend that prefix with
			// higher-ranked items.
			for r := 0; r < flist.Len(); r++ {
				sub, subLoose := core.Project(blocks, loose, dataset.Item(r))
				prefix := []dataset.Item{dataset.Item(r)}
				got := mine(sc, sub, subLoose, prefix)
				diff(t, fmt.Sprintf("projection on rank %d", r), got, canon(extending(oracle.Patterns, flist, r)))
			}

			// A pre-cancelled context returns its error without emitting.
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			var n mining.Count
			if err := eng.MineEncoded(cctx, nil, blocks, loose, flist, nil, min, &n); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-cancelled MineEncoded = %v, want context.Canceled", err)
			}
			if err := core.MineCDB(cctx, eng, cdb, min, &n); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-cancelled MineCDB = %v, want context.Canceled", err)
			}
			if n.N != 0 {
				t.Errorf("pre-cancelled mines emitted %d patterns", n.N)
			}

			// A zero threshold is rejected.
			if err := eng.MineEncoded(ctx, nil, blocks, loose, flist, nil, 0, &n); err != mining.ErrBadMinSupport {
				t.Errorf("MineEncoded(minCount 0) = %v, want ErrBadMinSupport", err)
			}
			if err := core.MineCDB(ctx, eng, cdb, 0, &n); err != mining.ErrBadMinSupport {
				t.Errorf("MineCDB(minCount 0) = %v, want ErrBadMinSupport", err)
			}
		})
	}
}

// extending returns the patterns of at least two items whose lowest-ranked
// item is rank r: exactly what mining the r-projection under prefix {r}
// emits.
func extending(ps []mining.Pattern, flist *mining.FList, r int) []mining.Pattern {
	var out []mining.Pattern
	for _, p := range ps {
		if len(p.Items) < 2 {
			continue
		}
		lowest := flist.Len()
		for _, it := range p.Items {
			if rank := flist.Rank(it); rank < lowest {
				lowest = rank
			}
		}
		if lowest == r {
			out = append(out, p)
		}
	}
	return out
}
