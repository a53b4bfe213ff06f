package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gogreen/internal/server"
)

// opHeader carries the op's log index so a shard-side span can be matched
// with the client-side span of the same request.
const opHeader = "X-Bench-Op"

// recorder is a reusable in-memory ResponseWriter: the handler is called
// directly, so the measured latency is the service stack, not a socket.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	r.header = http.Header{}
	r.code = 0
	r.body.Reset()
}

// epoch is the origin of every span timestamp.
var epoch = time.Now()

// span is one timed call, in nanoseconds from epoch.
type span struct {
	op         int32
	kind       opKind
	cache      string // mine and save: the response's cache outcome
	start, end int64
}

// result is what one phase of requests produced.
type result struct {
	lat       [numKinds][]time.Duration
	sessions  []time.Duration
	spans     []span
	attempted int
	failed    int
	problems  []string
	// wall, cpu, mallocs and gcs cover the timed part of the phase only:
	// the response checks run after it.
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64        // heap bytes allocated
	gcs     uint32        // GC cycles
	checked time.Duration // time spent checking responses, after the clock
	memPeak uint64
	// rounds are the consecutive parts of a measured phase.
	rounds []*result
}

func (r *result) merge(o *result) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.sessions = append(r.sessions, o.sessions...)
	r.spans = append(r.spans, o.spans...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
	r.wall += o.wall
	r.cpu += o.cpu
	r.mallocs += o.mallocs
	r.gcs += o.gcs
	r.checked += o.checked
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) ops() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// memSampler reads the heap size every `every` operations across all
// clients — sampled at fixed operation counts, not on a timer, so two runs
// of one log sample at the same points.
type memSampler struct {
	every int64
	n     atomic.Int64
	mu    sync.Mutex
	peak  uint64
}

func (m *memSampler) tick() {
	if m.n.Add(1)%m.every != 0 {
		return
	}
	m.sample()
}

func (m *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mu.Lock()
	if v := ms.HeapInuse + ms.StackInuse; v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
}

// arenaBytes is the address space of one client's response arena; only
// the pages a round's bodies touch are ever backed by memory.
const arenaBytes = 128 << 20

// bodyArena keeps one client's response bodies until the checks after the
// timed part of a round. It is an anonymous mapping outside the Go heap, so
// the kept bodies add nothing to the heap the benchmark samples, to its
// allocation count or to the collector's work.
type bodyArena struct{ buf []byte }

// arenas holds one arena per client slot; phases run one at a time.
var arenas []*bodyArena

// arenaFor returns the empty arena of client slot i.
func arenaFor(i int) *bodyArena {
	for len(arenas) <= i {
		buf, err := syscall.Mmap(-1, 0, arenaBytes, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
		if err != nil {
			panic("mmap response arena: " + err.Error())
		}
		arenas = append(arenas, &bodyArena{buf: buf[:0]})
	}
	a := arenas[i]
	a.buf = a.buf[:0]
	return a
}

// keep copies p into the arena and returns where it lies; ok is false when
// the arena is full.
func (a *bodyArena) keep(p []byte) (off, end int, ok bool) {
	off = len(a.buf)
	if len(p) > cap(a.buf)-off {
		return 0, 0, false
	}
	a.buf = append(a.buf, p...)
	return off, len(a.buf), true
}

// pending is a sent op whose response waits for its check.
type pending struct {
	o        *op
	code     int
	off, end int  // the body in the client's arena
	kept     bool // false: the arena was full
	span     int  // index of the op's span in res.spans, or -1
}

// client issues one client's ops in a closed loop. Each response is kept
// as sent back and checked only after the timed part (checkAll).
type client struct {
	h       http.Handler
	p       *plan
	exp     map[expKey]expected
	trace   bool
	mem     *memSampler
	arena   *bodyArena
	pending []pending
	rec     recorder
	res     result
}

// reserve sizes the client's records for sessions before the clock
// starts, so that appending to them allocates nothing in the timed part.
func (c *client) reserve(sessions [][]op) {
	var n [numKinds]int
	total := 0
	for _, s := range sessions {
		for _, o := range s {
			n[o.kind]++
			total++
		}
	}
	for k := range n {
		c.res.lat[k] = make([]time.Duration, 0, n[k])
	}
	c.res.sessions = make([]time.Duration, 0, len(sessions))
	c.pending = make([]pending, 0, total)
	if c.trace {
		c.res.spans = make([]span, 0, total)
	}
}

// request builds the HTTP request of op o (outside the timed call).
func (c *client) request(o *op, id int) *http.Request {
	var req *http.Request
	switch o.kind {
	case opPut:
		req, _ = http.NewRequest(http.MethodPut, "/db/"+o.db, bytes.NewReader(c.p.contents[o.content].body))
	case opMine, opSave:
		body, _ := json.Marshal(server.MineRequest{MinSupport: o.xi, SaveAs: o.name})
		req, _ = http.NewRequest(http.MethodPost, "/db/"+o.db+"/mine", bytes.NewReader(body))
	case opRead:
		req, _ = http.NewRequest(http.MethodGet, "/db/"+o.db+"/patterns/"+o.name, nil)
	}
	req.Header.Set(server.TenantHeader, o.tenant)
	if c.trace {
		req.Header.Set(opHeader, strconv.Itoa(id))
	}
	return req
}

// do sends one op and keeps its response for checkAll. id tags a traced
// request so its shard-side span can be found.
func (c *client) do(o *op, id int) {
	req := c.request(o, id)
	c.rec.reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	d := time.Since(t0)
	c.res.attempted++
	c.res.lat[o.kind] = append(c.res.lat[o.kind], d)
	pd := pending{o: o, code: c.rec.code, span: -1}
	pd.off, pd.end, pd.kept = c.arena.keep(c.rec.body.Bytes())
	if c.trace {
		pd.span = len(c.res.spans)
		c.res.spans = append(c.res.spans, span{op: int32(id), kind: o.kind,
			start: t0.Sub(epoch).Nanoseconds(), end: t0.Add(d).Sub(epoch).Nanoseconds()})
	}
	c.pending = append(c.pending, pd)
	if c.mem != nil {
		c.mem.tick()
	}
}

// checkAll checks every kept response against the oracle, tags each
// traced span with the mine's cache outcome, and empties the arena.
func (c *client) checkAll() {
	t0 := time.Now()
	for _, pd := range c.pending {
		if !pd.kept {
			c.res.fail("%s %s: response not kept: arena full", kindNames[pd.o.kind], pd.o.db)
			continue
		}
		cache := c.check(pd.o, pd.code, c.arena.buf[pd.off:pd.end])
		if pd.span >= 0 {
			c.res.spans[pd.span].cache = cache
		}
	}
	c.pending = c.pending[:0]
	c.arena.buf = c.arena.buf[:0]
	c.res.checked += time.Since(t0)
}

// check validates the response (code, body) of o against the oracle; any
// mismatch is a failed operation. It returns the mine cache outcome.
func (c *client) check(o *op, code int, body []byte) string {
	switch o.kind {
	case opPut:
		var info server.DBInfo
		if (code != http.StatusOK && code != http.StatusCreated) || json.Unmarshal(body, &info) != nil {
			c.res.fail("PUT %s: status %d: %.200s", o.db, code, body)
		} else if want := c.p.contents[o.content].db.Len(); info.Tuples != want {
			c.res.fail("PUT %s: %d tuples, want %d", o.db, info.Tuples, want)
		}
	case opMine, opSave:
		var resp server.MineResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			c.res.fail("mine %s@%g: status %d: %.200s", o.db, o.xi, code, body)
			return ""
		}
		want := c.exp[expKey{o.content, o.minCount}]
		switch {
		case resp.Count != want.count:
			c.res.fail("mine %s@%g: %d patterns, want %d", o.db, o.xi, resp.Count, want.count)
		case o.kind == opSave && (resp.SavedAs != o.name || resp.SaveSkipped):
			c.res.fail("save %s/%s: not saved", o.db, o.name)
		}
		return resp.Cache
	case opRead:
		var pats []server.MinePattern
		if code != http.StatusOK || json.Unmarshal(body, &pats) != nil {
			c.res.fail("read %s/%s: status %d: %.200s", o.db, o.name, code, body)
			return ""
		}
		var h uint64
		for _, p := range pats {
			h += patternHash(p.Items, p.Support)
		}
		if want := c.exp[expKey{o.content, o.minCount}]; len(pats) != want.count || h != want.hash {
			c.res.fail("read %s/%s: %d patterns (hash %x), want %d (hash %x)",
				o.db, o.name, len(pats), h, want.count, want.hash)
		}
	}
	return ""
}

// opID numbers op j of session s of client i uniquely within a log (a
// session holds fewer than 64 ops, a client fewer than 2^18 sessions).
func opID(i, s, j int) int { return i<<24 | s<<6 | j }

// runSessions runs sessions [from, to) of every client concurrently, one
// goroutine per client, and waits for all of them. Wall time, process CPU
// time and heap allocation cover that timed part only; the responses are
// checked after it.
func runSessions(h http.Handler, p *plan, exp map[expKey]expected, from, to int, trace bool, mem *memSampler) *result {
	clients := make([]*client, len(p.clients))
	for i := range clients {
		clients[i] = &client{h: h, p: p, exp: exp, trace: trace, mem: mem, arena: arenaFor(i)}
		sessions := p.clients[i]
		clients[i].reserve(sessions[min(from, len(sessions)):min(to, len(sessions))])
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	origin := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		sessions := p.clients[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := from; s < to && s < len(sessions); s++ {
				t0 := time.Now()
				for j := range sessions[s] {
					c.do(&sessions[s][j], opID(i, s, j))
				}
				c.res.sessions = append(c.res.sessions, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	out := &result{wall: time.Since(origin), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcs = ms1.NumGC - ms0.NumGC
	for _, c := range clients {
		c.checkAll()
		out.merge(&c.res)
	}
	return out
}
