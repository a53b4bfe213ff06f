package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/gen"
)

// opKind is the operation class a request belongs to. Every class has its
// own latency record: one class's numbers are never reported as another's.
type opKind uint8

const (
	opPut  opKind = iota // PUT /db/{id}: upload or replace a database
	opMine               // POST /db/{id}/mine without save_as
	opSave               // POST /db/{id}/mine with save_as
	opRead               // GET /db/{id}/patterns/{name}
	numKinds
)

var kindNames = [numKinds]string{"put", "mine", "save", "read"}

// op is one request of the generated log. content and minCount are resolved
// at generation time, so the expected answer of every op is known before
// the service sees it.
type op struct {
	kind     opKind
	db       string
	tenant   string
	content  int     // content index the database holds when the op runs
	xi       float64 // relative threshold sent as min_support (mine, save)
	minCount int     // absolute threshold the service resolves xi to
	name     string  // save_as name (save) or saved-set name (read)
}

// content is one generated database body and its parsed form (the parsed
// form feeds the oracle and the inner-layer replay, never the service).
type content struct {
	body []byte
	db   *dataset.DB
}

// savedRef is what a database's saved set should read back as.
type savedRef struct {
	content, minCount int
}

// dbFinal is a database's last acknowledged state in the generated log.
type dbFinal struct {
	tenant  string
	content int
	sets    map[string]savedRef
}

// plan is one run's complete input: the content pool, the uploads done at
// set-up, and every client's sessions (warm-up sessions first).
type plan struct {
	contents []content
	setup    []op
	clients  [][][]op // client → session → ops
	warm     int      // leading sessions per client that are warm-up
	final    map[string]*dbFinal
}

// workload describes one service configuration and the traffic it serves.
type workload struct {
	name   string
	shards int
	routed bool
	// budget is the lattice byte budget (0 keeps the service default).
	budget int64
	// apriori selects the Apriori oracle; otherwise a fresh H-Mine mine
	// computes expected answers.
	apriori bool
	// routedOps caps the log prefix (whole sessions) the routed replay sends.
	routedOps int
	// restartSessions is how many sessions at the end of each client's log
	// are played again, untimed, on a service with a data dir, which is
	// then closed, re-opened and checked (0: no restart check). The
	// measured service itself always runs in memory.
	restartSessions int
	build           func(seed int64, seconds int) *plan
}

var workloads = []*workload{
	{
		name:   "relax-ladder",
		shards: 1, routedOps: 64, restartSessions: 2 * ladderPool,
		build: buildLadder,
	},
	{
		name:   "zipf-tenants",
		shards: 2, budget: 1 << 20, apriori: true, routedOps: 1500,
		build: func(seed int64, seconds int) *plan { return buildZipf(seed, seconds, 4000, 26000) },
	},
	{
		name:   "routed-zipf",
		shards: 2, routed: true, budget: 1 << 20, apriori: true, routedOps: 1500,
		build: func(seed int64, seconds int) *plan { return buildZipf(seed, seconds, 1000, 14000) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// basket renders a database in the service's upload format.
func basket(db *dataset.DB) []byte {
	var sb strings.Builder
	for _, tx := range db.All() {
		for j, it := range tx {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(int(it)))
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func newContent(db *dataset.DB) content { return content{body: basket(db), db: db} }

// resolve turns a relative threshold into the absolute count the service
// mines at, with the service's own rule.
func resolve(numTx int, xi float64) int {
	n, err := engine.Threshold{Support: xi}.Resolve(numTx)
	if err != nil {
		panic(fmt.Sprintf("threshold %g: %v", xi, err))
	}
	return n
}

// logger appends ops to sessions while tracking every database's state, so
// that each op carries its expected content and reads name real sets.
type logger struct {
	p   *plan
	cur []op
}

func newLogger(contents []content, clients int) *logger {
	return &logger{p: &plan{contents: contents, clients: make([][][]op, clients),
		final: map[string]*dbFinal{}}}
}

func (l *logger) state(db string) *dbFinal {
	st, ok := l.p.final[db]
	if !ok {
		panic("benchmark bug: op on a database never uploaded: " + db)
	}
	return st
}

// upload records a PUT; at set-up when session is false.
func (l *logger) upload(db, tenant string, c int, session bool) {
	l.p.final[db] = &dbFinal{tenant: tenant, content: c, sets: map[string]savedRef{}}
	o := op{kind: opPut, db: db, tenant: tenant, content: c}
	if session {
		l.cur = append(l.cur, o)
	} else {
		l.p.setup = append(l.p.setup, o)
	}
}

func (l *logger) mine(db string, xi float64) {
	st := l.state(db)
	l.cur = append(l.cur, op{kind: opMine, db: db, tenant: st.tenant, content: st.content, xi: xi,
		minCount: resolve(l.p.contents[st.content].db.Len(), xi)})
}

func (l *logger) save(db string, xi float64, name string) {
	st := l.state(db)
	mc := resolve(l.p.contents[st.content].db.Len(), xi)
	st.sets[name] = savedRef{content: st.content, minCount: mc}
	l.cur = append(l.cur, op{kind: opSave, db: db, tenant: st.tenant, content: st.content, xi: xi,
		minCount: mc, name: name})
}

func (l *logger) read(db, name string) {
	st := l.state(db)
	ref, ok := st.sets[name]
	if !ok {
		panic("benchmark bug: read of a set never saved: " + name)
	}
	// A read's minCount is the threshold its set was saved at.
	l.cur = append(l.cur, op{kind: opRead, db: db, tenant: st.tenant, content: ref.content,
		minCount: ref.minCount, name: name})
}

// endSession closes the current session of client c.
func (l *logger) endSession(c int) {
	l.p.clients[c] = append(l.p.clients[c], l.cur)
	l.cur = nil
}

// ladderConfig is the dense Connect-4 stand-in of relax-ladder: 43
// attributes of 3 values, with one hierarchy whose nested levels sit inside
// the ladder's threshold range and two whose levels sit far below it. The
// second and third hierarchies keep every cross-hierarchy joint support
// under 0.90, so no rung of the ladder can reach the product-set cliff the
// Connect-4 preset has near 0.93: the pattern count at ξ ≥ 0.93 is bounded
// by the 2^12 subsets of the deepest in-range level.
func ladderConfig(seed int64) gen.DenseConfig {
	return gen.DenseConfig{
		NumTx: 2000, NumAttrs: 43, ValuesPerAttr: 3,
		TopProbLo: 0.40, TopProbHi: 0.80, NoiseTop: 0.10,
		Hierarchies: []gen.Hierarchy{
			{Start: 0, Sizes: []int{8, 10, 12}, Probs: []float64{0.985, 0.965, 0.945}},
			{Start: 16, Sizes: []int{9, 12, 15}, Probs: []float64{0.900, 0.860, 0.820}},
			{Start: 31, Sizes: []int{8, 10, 12}, Probs: []float64{0.895, 0.855, 0.815}},
		},
		Seed: seed,
	}
}

// The analyst's session: a miss at the top of the ladder, relaxations down
// to ladderSave, whose result is saved, a tightening that the lattice
// answers, then a read of the saved set.
var ladder = []float64{0.97, 0.96, 0.95, 0.94}

const (
	ladderPool  = 12   // distinct dense contents per run
	ladderSave  = 0.93 // the last relaxation, saved
	ladderCheck = 0.96 // the tightening back
)

// buildLadder: one client; each session re-uploads a pool content to that
// content's own database id, which drops the id's lattice rungs, and walks
// the ladder. Every pool content appears equally often; the seed draws the
// order, one permutation of the pool after another. One id per content
// leaves ladderPool acknowledged databases and saved sets for the restart
// check, and the last 2 × ladderPool sessions upload each of them twice.
func buildLadder(seed int64, seconds int) *plan {
	contents := make([]content, ladderPool)
	for i := range contents {
		contents[i] = newContent(gen.Dense(ladderConfig(20040401 + int64(i))))
	}
	// ≥ 200 sessions keep ≥ 1000 mines per run, enough for a p99; runs
	// of about 25 s average over the minute-scale speed swings of a shared
	// machine better than shorter ones. Each measured round holds whole
	// permutations of the pool, so every round (and every group of rounds a
	// percentile is taken over) mines the same mix of contents whatever
	// the seed.
	sessions := roundUp(max(42*seconds, 200), ladderPool*rounds)
	warm := 8
	r := rand.New(rand.NewSource(seed))
	order := make([]int, 0, sessions)
	for len(order) < sessions {
		order = append(order, r.Perm(ladderPool)...)
	}
	l := newLogger(contents, 1)
	for s := 0; s < warm+sessions; s++ {
		c := r.Intn(ladderPool)
		if s >= warm {
			c = order[s-warm]
		}
		id := "ladder-" + strconv.Itoa(c)
		l.upload(id, "analyst", c, true)
		for _, xi := range ladder {
			l.mine(id, xi)
		}
		l.save(id, ladderSave, "final")
		l.mine(id, ladderCheck)
		l.read(id, "final")
		l.endSession(0)
	}
	l.p.warm = warm
	return l.p
}

// tenantContent is the small dense database pool of the Zipf workloads:
// each fresh mine costs well under a millisecond, so service overhead —
// routing, locks, JSON, lattice bookkeeping — dominates.
func tenantContent(i int) content {
	return newContent(gen.Dense(gen.DenseConfig{
		NumTx: 80, NumAttrs: 12, ValuesPerAttr: 3,
		TopProbLo: 0.10, TopProbHi: 0.30, NoiseTop: 0.05,
		Hierarchies: []gen.Hierarchy{
			{Start: 0, Sizes: []int{3, 6}, Probs: []float64{0.7, 0.45}},
		},
		Seed: 7000 + int64(i),
	}))
}

// zipfMix is the fixed threshold mix of tenant requests.
var zipfMix = []float64{0.6, 0.5, 0.4, 0.3, 0.25}

const (
	zipfPool = 48
	zipfS    = 1.1
)

// buildZipf: clients own disjoint tenant halves (so each tenant's state has
// one writer and every expected answer is known); each session visits one
// Zipf-drawn tenant and issues three mines, occasionally re-uploading first
// or saving its first result and reading it back after. With three mines, sessions that only
// hit the lattice are a minority, so the session median does not sit on the
// edge between all-hit sessions and sessions that mine.
func buildZipf(seed int64, seconds, tenants, opsPerSec int) *plan {
	const clients = 2
	contents := make([]content, zipfPool)
	for i := range contents {
		contents[i] = tenantContent(i)
	}
	l := newLogger(contents, clients)
	for t := 0; t < tenants; t++ {
		l.upload(tenantID(t), tenantID(t), t%zipfPool, false)
	}
	// A session averages ~3.3 ops.
	perClient := opsPerSec * seconds * 10 / 33 / clients
	warm := perClient / 10
	for c := 0; c < clients; c++ {
		r := rand.New(rand.NewSource(seed*clients + int64(c)))
		z := rand.NewZipf(r, zipfS, 1, uint64(tenants/clients-1))
		for s := 0; s < warm+perClient; s++ {
			id := tenantID(int(z.Uint64())*clients + c)
			if r.Intn(16) == 0 {
				cur := l.state(id).content
				l.upload(id, id, (cur+1+r.Intn(zipfPool-1))%zipfPool, true)
			}
			first := zipfMix[r.Intn(len(zipfMix))]
			l.mine(id, first)
			l.mine(id, zipfMix[r.Intn(len(zipfMix))])
			l.mine(id, zipfMix[r.Intn(len(zipfMix))])
			if r.Intn(8) == 0 {
				// Save what the session looked at first: always a lattice
				// hit, so the save percentiles sit inside one mode instead
				// of on the edge between hits and mines.
				l.save(id, first, "s")
				l.read(id, "s")
			}
			l.endSession(c)
		}
	}
	l.p.warm = warm
	return l.p
}

func tenantID(t int) string { return "t" + strconv.Itoa(t) }

func roundUp(n, m int) int { return (n + m - 1) / m * m }
