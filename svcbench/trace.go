package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gogreen/internal/shard"
)

// wrapFunc wraps a shard server's handler.
type wrapFunc func(h http.Handler) http.Handler

// shardSpans records, for every request a shard server handles, the span
// of the shard's own handler: the part of a routed request that is not the
// router or the wire.
type shardSpans struct {
	mu    sync.Mutex
	spans map[int32]span
}

func newShardSpans() *shardSpans { return &shardSpans{spans: map[int32]span{}} }

func (s *shardSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		id, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			return // health probes and other untagged requests
		}
		s.mu.Lock()
		s.spans[int32(id)] = span{op: int32(id), start: t0.Sub(epoch).Nanoseconds(),
			end: t1.Sub(epoch).Nanoseconds()}
		s.mu.Unlock()
	})
}

func (s *shardSpans) get(id int32) (span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.spans[id]
	return sp, ok
}

// traced runs the per-layer half of a trace run: the workload again on a
// fresh service with spans around every handler call (part 1), then the
// same log replayed through the inner layers' public functions (part 2),
// then a routed replay for the router layer. base is the untraced phase of
// this run, which gives the tracing overhead and the Go runtime numbers.
func (b *bench) traced(base *result) (*report, error) {
	rep := &report{}
	var spans *shardSpans
	var wrap wrapFunc
	if b.w.routed {
		spans = newShardSpans()
		wrap = spans.wrap
	}
	st, _, err := b.setup("", wrap)
	if err != nil {
		return nil, err
	}
	before := st.counters()
	res := b.measure(st, b.p.warm, len(b.p.clients[0]), true)
	after := st.counters()
	if err := st.close(); err != nil {
		return nil, err
	}

	// server: handler spans by operation class and cache outcome. Routed,
	// the handler is the shard server's; in process, the client's call.
	var hit, miss, relax, put, save, read []time.Duration
	for _, sp := range res.spans {
		d := time.Duration(sp.end - sp.start)
		if spans != nil {
			ss, ok := spans.get(sp.op)
			if !ok {
				return nil, fmt.Errorf("no shard span for op %d", sp.op)
			}
			d = time.Duration(ss.end - ss.start)
		}
		switch {
		case sp.kind == opPut:
			put = append(put, d)
		case sp.kind == opRead:
			read = append(read, d)
		case sp.kind == opSave:
			save = append(save, d)
		case sp.cache == "hit":
			hit = append(hit, d)
		case sp.cache == "relax":
			relax = append(relax, d)
		default:
			miss = append(miss, d)
		}
	}
	rep.pct("server.hit_p50_us", "us", hit, 0.5)
	rep.pct("server.miss_p50_us", "us", miss, 0.5)
	rep.pct("server.relax_p50_ms", "ms", relax, 0.5)
	rep.pct("server.put_p50_ms", "ms", put, 0.5)
	rep.pct("server.save_p50_ms", "ms", save, 0.5)
	rep.pct("server.read_p50_us", "us", read, 0.5)

	if err := b.routerReplay(rep); err != nil {
		return nil, err
	}

	// shard: request share of the busiest shard on the two-shard ring.
	ring := shard.New(2)
	per := make([]int, 2)
	total := 0
	for _, sessions := range b.p.clients {
		for _, s := range sessions[b.p.warm:] {
			for _, o := range s {
				per[ring.Owner(o.db)]++
				total++
			}
		}
	}
	rep.add("shard.load_skew", "ratio", float64(max(per[0], per[1]))/(float64(total)/2), total)

	// lattice: outcome shares and eviction churn from the service's own
	// counters over the traced phase.
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	lookups := delta("cache_hit") + delta("cache_relax") + delta("cache_miss")
	n := int(lookups)
	rep.add("lattice.hit_ratio", "ratio", ratio(delta("cache_hit"), lookups), n)
	rep.add("lattice.relax_ratio", "ratio", ratio(delta("cache_relax"), lookups), n)
	rep.add("lattice.miss_ratio", "ratio", ratio(delta("cache_miss"), lookups), n)
	rep.add("lattice.evictions_per_install", "ratio", ratio(delta("cache_evict"), delta("cache_install")), int(delta("cache_install")))
	rep.add("lattice.resident_mb", "MB", float64(after["lattice_bytes"])/(1<<20), 1)

	if err := b.replay(rep); err != nil {
		return nil, err
	}

	// go: allocation and GC per op, from the untraced phase.
	ops := base.ops()
	rep.add("go.alloc_bytes_per_op", "B", float64(base.mallocs)/float64(ops), ops)
	rep.add("go.gc_cycles_per_kop", "count", float64(base.gcs)*1000/float64(ops), ops)
	rep.add("trace.overhead_pct", "%", (res.wall.Seconds()/base.wall.Seconds()-1)*100, ops)

	if err := writeSpans(filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.tsv", b.w.name, b.seed)), res, spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeSpans writes the traced phase's spans, one per line: op id, class,
// cache outcome, client start and end, shard start and end (ns).
func writeSpans(path string, res *result, spans *shardSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tclass\tcache\tstart_ns\tend_ns\tshard_start_ns\tshard_end_ns")
	for _, sp := range res.spans {
		var ss span
		if spans != nil {
			ss, _ = spans.get(sp.op)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\n", sp.op, kindNames[sp.kind], sp.cache,
			sp.start, sp.end, ss.start, ss.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
