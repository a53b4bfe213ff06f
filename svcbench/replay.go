package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/lattice"
	"gogreen/internal/mining"
	"gogreen/internal/shard"
	"gogreen/internal/store"
)

// phaseRec is the replay's engine observer: phase durations by phase and
// algorithm, as the pipeline reports them.
type phaseRec struct {
	mu                      sync.Mutex
	compress, filter        []time.Duration
	freshMine, recycledMine []time.Duration
}

func (p *phaseRec) OnPhaseStart(engine.Phase, string) {}

func (p *phaseRec) OnPhaseEnd(phase engine.Phase, algo string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case phase == engine.PhaseCompress:
		p.compress = append(p.compress, d)
	case phase == engine.PhaseFilter:
		p.filter = append(p.filter, d)
	case phase == engine.PhaseMine && (algo == "hmine" || algo == "par-hmine"):
		p.freshMine = append(p.freshMine, d)
	case phase == engine.PhaseMine:
		p.recycledMine = append(p.recycledMine, d)
	}
}

// replay sends the run's log (measured sessions, clients interleaved by
// session) through the inner layers' public functions, each call timed
// from outside: dataset.ReadBasketIDs for uploads, store.Store.Put* on a
// data dir on the same filesystem, engine.Pipeline.Serve with a benchmark
// phase observer over a lattice store of the service's per-shard budget
// (the lattice outcome counts come from the service's counters), and a
// shadow lattice store that receives the same Best and Install calls so
// those two can be timed alone. Serve's answers are checked too.
func (b *bench) replay(rep *report) error {
	disk, err := store.Open(filepath.Join(b.dir, "replay-store"), store.Options{})
	if err != nil {
		return err
	}
	defer disk.Close()
	budget := engine.CacheConfig{Enabled: true, Budget: b.w.budget}.ResolveBudget() / int64(b.w.shards)
	ring := shard.New(b.w.shards)
	stores := make([]*lattice.Store, b.w.shards)
	shadows := make([]*lattice.Store, b.w.shards)
	for i := range stores {
		stores[i], shadows[i] = lattice.NewStore(budget), lattice.NewStore(budget)
	}
	obs := &phaseRec{}
	dbs := map[string]*dataset.DB{}
	bodies := map[string][]byte{}
	var parse, serve, best, install []time.Duration
	var ratios []float64
	var patterns, serves int
	res := &result{}
	w := &storeWriter{disk: disk, onDisk: map[string]bool{}}

	// upload parses a PUT body; timed uploads are also written through.
	upload := func(o op, timed bool) error {
		body := b.p.contents[o.content].body
		t0 := time.Now()
		db, err := dataset.ReadBasketIDs(bytes.NewReader(body))
		if timed {
			parse = append(parse, time.Since(t0))
		}
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		sh := ring.Owner(o.db)
		if old := dbs[o.db]; old != nil {
			stores[sh].Invalidate(old)
			shadows[sh].Invalidate(old)
		}
		dbs[o.db], bodies[o.db] = db, body
		w.onDisk[o.db] = false
		if timed {
			return w.putDB(o.db, o.tenant, db, body)
		}
		return nil
	}
	for _, o := range b.p.setup {
		if err := upload(o, false); err != nil {
			return err
		}
	}
	ctx := context.Background()
	step := func(o op) error {
		sh := ring.Owner(o.db)
		switch o.kind {
		case opPut:
			return upload(o, true)
		case opMine, opSave:
			db := dbs[o.db]
			t0 := time.Now()
			shadows[sh].Cache(db).Best(o.minCount)
			best = append(best, time.Since(t0))
			pipe := engine.Pipeline{CompressWorkers: runtime.GOMAXPROCS(0), Observer: obs,
				Cache: stores[sh].Cache(db)}
			t0 = time.Now()
			run, err := pipe.Serve(ctx, db, nil, o.minCount, nil)
			serve = append(serve, time.Since(t0))
			if err != nil {
				return fmt.Errorf("replay serve: %w", err)
			}
			serves++
			patterns += len(run.Patterns)
			res.attempted++
			if want := b.exp[expKey{o.content, o.minCount}]; len(run.Patterns) != want.count {
				res.fail("replay serve %s@%d: %d patterns, want %d", o.db, o.minCount, len(run.Patterns), want.count)
			}
			if run.CompressStats != nil {
				ratios = append(ratios, run.CompressStats.Ratio)
			}
			if run.Installed != nil {
				t0 = time.Now()
				shadows[sh].Cache(db).Install(run.Installed.MinCount, run.Installed.Patterns)
				install = append(install, time.Since(t0))
			}
			return w.putMine(o, o.tenant, db, bodies[o.db], run.Installed, run.Patterns)
		}
		return nil
	}
	for s := 0; s < len(b.p.clients[0]); s++ {
		for _, sessions := range b.p.clients {
			if s >= len(sessions) {
				continue
			}
			for _, o := range sessions[s] {
				var err error
				switch {
				case s >= b.p.warm:
					err = step(o)
				case o.kind == opPut:
					// Warm-up sessions only build state.
					err = upload(o, false)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	b.count(res)
	st := disk.Stats()
	rep.pct("lattice.best_p50_us", "us", best, 0.5)
	rep.pct("lattice.install_p50_us", "us", install, 0.5)
	rep.pct("engine.filter_p50_us", "us", obs.filter, 0.5)
	rep.pct("engine.serve_p50_ms", "ms", serve, 0.5)
	rep.pct("core.compress_p50_ms", "ms", obs.compress, 0.5)
	rep.add("core.compress_ratio", "ratio", medianFloat(ratios), len(ratios))
	rep.pct("rphmine.mine_p50_ms", "ms", obs.recycledMine, 0.5)
	rep.pct("hmine.mine_p50_us", "us", obs.freshMine, 0.5)
	rep.add("mine.patterns_per_request", "count", float64(patterns)/float64(serves), serves)
	rep.pct("store.put_db_p50_us", "us", w.putDBs, 0.5)
	rep.pct("store.put_set_p50_us", "us", w.putSets, 0.5)
	rep.pct("store.put_rung_p50_us", "us", w.putRungs, 0.5)
	rep.add("store.records_per_write", "count", float64(w.records)/float64(w.writes), w.writes)
	rep.add("store.segments", "count", float64(st.Segments), 1)
	rep.add("store.compactions", "count", float64(st.Compactions), 1)
	rep.add("store.disk_bytes_per_user_byte", "ratio", float64(st.DiskBytes)/float64(w.userBytes), w.writes)
	rep.pct("dataset.parse_p50_us", "us", parse, 0.5)
	return nil
}

// maxRecords caps the records the replay writes to its store: every write
// is fsync'd, and the Zipf logs hold far more installs than a bounded
// replay can sync. The cap is reached at the same op on every run.
const maxRecords = 2500

// storeWriter writes the replay's acknowledged state through a
// store.Store, timing each Put* call, until maxRecords records are written.
// A database's first write-through also writes its upload (untimed) when
// the upload happened before the timed part.
type storeWriter struct {
	disk                      *store.Store
	onDisk                    map[string]bool
	putDBs, putSets, putRungs []time.Duration
	records, writes           int
	userBytes                 int64
}

func (w *storeWriter) full() bool { return w.records >= maxRecords }

func (w *storeWriter) putDB(id, tenant string, db *dataset.DB, body []byte) error {
	if w.full() {
		return nil
	}
	t0 := time.Now()
	err := w.disk.PutDB(id, tenant, db)
	w.putDBs = append(w.putDBs, time.Since(t0))
	w.onDisk[id] = true
	w.userBytes += int64(len(body))
	w.records++
	w.writes++
	return err
}

// putMine writes what one mine leaves behind: the installed rung and, for
// a save, the saved set.
func (w *storeWriter) putMine(o op, tenant string, db *dataset.DB, body []byte,
	rung *engine.InstalledRung, fp []mining.Pattern) error {
	if w.full() || (rung == nil && o.kind != opSave) {
		return nil
	}
	if !w.onDisk[o.db] {
		if err := w.disk.PutDB(o.db, tenant, db); err != nil {
			return err
		}
		w.onDisk[o.db] = true
		w.userBytes += int64(len(body))
		w.records++
	}
	if rung != nil {
		t0 := time.Now()
		err := w.disk.PutRung(o.db, rung.MinCount, rung.Patterns)
		w.putRungs = append(w.putRungs, time.Since(t0))
		w.records++
		if err != nil {
			return err
		}
	}
	if o.kind == opSave {
		t0 := time.Now()
		err := w.disk.PutSet(o.db, o.name, o.minCount, time.Now(), fp)
		w.putSets = append(w.putSets, time.Since(t0))
		w.records++
		w.writes++
		return err
	}
	return nil
}

// routerReplay sends a prefix of the log through server.NewRouter to two
// shard servers on loopback, and sends each read-only op (mines without
// save_as, reads) a second time straight to its owning shard. A routed
// hop is the client span minus the shard handler's span; a direct hop is
// the same for the direct request. router.hop is the routed hop,
// router.self the routed hop minus the direct hop of the same op.
func (b *bench) routerReplay(rep *report) error {
	rw := *b.w
	rw.routed, rw.shards = true, 2
	if rw.budget == 0 {
		rw.budget = engine.DefaultCacheBudget
	}
	spans := newShardSpans()
	st, err := openStack(&rw, "", spans.wrap)
	if err != nil {
		return err
	}
	defer st.close()

	// Uploads first: the set-up contents of every database the prefix uses.
	sessions := 0
	used := map[string]bool{}
	n := 0
	for ; sessions < len(b.p.clients[0]) && n < b.w.routedOps; sessions++ {
		for _, cs := range b.p.clients {
			if sessions < len(cs) {
				for _, o := range cs[sessions] {
					used[o.db] = true
					n++
				}
			}
		}
	}
	pre := &plan{contents: b.p.contents, clients: [][][]op{nil}}
	for _, o := range b.p.setup {
		if used[o.db] {
			pre.clients[0] = append(pre.clients[0], []op{o})
		}
	}
	b.count(runSessions(st.h, pre, b.exp, 0, len(pre.clients[0]), false, nil))

	direct := &http.Client{}
	defer direct.CloseIdleConnections()
	owner := shard.New(2)
	c := &client{h: st.h, p: b.p, exp: b.exp, trace: true, arena: arenaFor(0)}
	dc := &client{h: forward(direct, st.addrs, owner), p: b.p, exp: b.exp, trace: true, arena: arenaFor(1)}
	var hops, self []time.Duration
	id := 0
	hop := func(sp span) (time.Duration, bool) {
		ss, ok := spans.get(sp.op)
		return time.Duration((sp.end - sp.start) - (ss.end - ss.start)), ok
	}
	for s := 0; s < sessions; s++ {
		for _, cs := range b.p.clients {
			if s >= len(cs) {
				continue
			}
			for j := range cs[s] {
				o := &cs[s][j]
				c.do(o, id)
				h, ok := hop(c.res.spans[len(c.res.spans)-1])
				id++
				if !ok {
					return fmt.Errorf("router replay: no shard span for op %d", id-1)
				}
				hops = append(hops, h)
				if o.kind == opMine || o.kind == opRead {
					dc.do(o, id)
					d, ok := hop(dc.res.spans[len(dc.res.spans)-1])
					id++
					if !ok {
						return fmt.Errorf("router replay: no shard span for direct op %d", id-1)
					}
					self = append(self, h-d)
				}
			}
		}
	}
	c.checkAll()
	dc.checkAll()
	b.count(&c.res)
	b.count(&dc.res)
	rep.pct("router.self_p50_us", "us", self, 0.5)
	rep.pct("router.hop_p50_us", "us", hops, 0.5)
	return nil
}

// forward is a handler that sends the request over HTTP straight to the
// shard owning its database, bypassing the router.
func forward(hc *http.Client, addrs []string, ring *shard.Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := r.Clone(r.Context())
		out.URL.Scheme = "http"
		id, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/db/"), "/")
		out.URL.Host = addrs[ring.Owner(id)]
		out.RequestURI = ""
		resp, err := hc.Do(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	})
}
