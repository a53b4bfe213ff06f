// Command svcbench is the service benchmark: it drives the real service
// stack (server, shards, router, engine, lattice, durable store) in one
// process with one of four generated workloads, checks every response
// against an oracle, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics from a traced run and an inner-layer replay). See
// README.md in this directory for the workloads and the metric table.
//
//	svcbench -workload zipf-tenants -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets the service up; setup_s is the
// median, and the last round's service is the one measured.
const setupRounds = 3

func main() {
	name := flag.String("workload", "", "workload: relax-ladder, zipf-tenants or routed-zipf")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same request log")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; op counts are fixed from it")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build/svcbench-work", "scratch directory for data dirs and the span file")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: *seed, work: *work, dir: dir}
	rep, err := b.run(*seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	for _, p := range b.tally.problems {
		fmt.Fprintf(os.Stderr, "svcbench: check failed: %s\n", p)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "svcbench: metric error: %s\n", e)
	}
	printReport(b, rep)
	if b.tally.failed > 0 || len(rep.errs) > 0 {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	seed int64
	work string // scratch root: the span file lands here
	dir  string // this run's data dirs, removed at exit
	p    *plan
	exp  map[expKey]expected
	// tally counts every op issued in the run and every failed check.
	tally result
}

func (b *bench) count(r *result) {
	b.tally.attempted += r.attempted
	b.tally.failed += r.failed
	for _, p := range r.problems {
		if len(b.tally.problems) < 8 {
			b.tally.problems = append(b.tally.problems, p)
		}
	}
}

func (b *bench) run(seconds int, trace bool) (*report, error) {
	b.p = b.w.build(b.seed, seconds)
	b.exp = oracle(b.p, b.w.apriori)

	st, setups, err := b.setupRounds()
	if err != nil {
		return nil, err
	}
	base := b.measure(st, b.p.warm, len(b.p.clients[0]), false)
	if err := b.durability(st); err != nil {
		return nil, err
	}
	if !trace {
		return b.endToEnd(setups, base), nil
	}
	return b.traced(base)
}

// setupRounds opens an in-memory service, uploads the set-up databases and
// runs the warm-up sessions, setupRounds times. It returns the last round's
// service and every round's set-up time, less the time spent checking the
// set-up responses.
func (b *bench) setupRounds() (*stack, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		st, checked, err := b.setup("", nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0)-checked)
		if i == setupRounds-1 {
			return st, times, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
}

// setup opens a stack (durable on dir, or in memory when dir is empty),
// uploads the set-up databases (split across the workload's clients) and
// runs the warm-up sessions. It also returns how long checking their
// responses took.
func (b *bench) setup(dir string, wrap wrapFunc) (*stack, time.Duration, error) {
	st, err := openStack(b.w, dir, wrap)
	if err != nil {
		return nil, 0, err
	}
	res := &result{}
	up := &plan{contents: b.p.contents, clients: make([][][]op, len(b.p.clients))}
	for i, o := range b.p.setup {
		c := i % len(up.clients)
		up.clients[c] = append(up.clients[c], []op{o})
	}
	if len(b.p.setup) > 0 {
		res.merge(runSessions(st.h, up, b.exp, 0, len(up.clients[0]), false, nil))
	}
	res.merge(runSessions(st.h, b.p, b.exp, 0, b.p.warm, false, nil))
	b.count(res)
	return st, res.checked, nil
}

// rounds splits a measured phase into consecutive parts; a metric is the
// median of its per-round values, so one disturbed stretch of a run (a
// neighbour's disk burst on a shared machine) moves it less.
const rounds = 10

// measure runs sessions [from, to) as one measured phase in rounds. Each
// round starts on a collected heap, so neither set-up nor the previous
// round's response checks leave garbage for it to collect. A round records
// its wall time, process CPU time, allocation and latencies; the heap peak
// is sampled over the whole phase.
func (b *bench) measure(st *stack, from, to int, trace bool) *result {
	mem := &memSampler{every: memEvery(b.p, from, to)}
	res := &result{}
	for r := 0; r < rounds; r++ {
		lo, hi := from+(to-from)*r/rounds, from+(to-from)*(r+1)/rounds
		runtime.GC()
		mem.sample()
		part := runSessions(st.h, b.p, b.exp, lo, hi, trace, mem)
		res.merge(part)
		res.rounds = append(res.rounds, part)
	}
	res.memPeak = mem.peak
	b.count(res)
	return res
}

// memEvery spaces ~200 heap samples over the phase's op count.
func memEvery(p *plan, from, to int) int64 {
	n := 0
	for _, sessions := range p.clients {
		for s := from; s < to && s < len(sessions); s++ {
			n += len(sessions[s])
		}
	}
	return int64(max(n/200, 1))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd turns the measured phase into the end-to-end metrics.
func (b *bench) endToEnd(setups []time.Duration, r *result) *report {
	rep := &report{}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	rep.add("setup_s", "s", medianFloat(secs), len(setups))
	ops := r.ops()
	var tput, cpu []float64
	for _, part := range r.rounds {
		tput = append(tput, float64(part.ops())/part.wall.Seconds())
		cpu = append(cpu, float64(part.cpu.Microseconds())/float64(part.ops()))
	}
	rep.add("throughput_ops", "1/s", medianFloat(tput), ops)
	rep.add("ok_rate", "ratio", float64(b.tally.attempted-b.tally.failed)/float64(b.tally.attempted), b.tally.attempted)
	rep.add("cpu_us_per_op", "us", medianFloat(cpu), ops)
	rep.add("mem_peak_mb", "MB", float64(r.memPeak)/(1<<20), 200)
	sessions := func(p *result) []time.Duration { return p.sessions }
	class := func(k opKind) func(p *result) []time.Duration {
		return func(p *result) []time.Duration { return p.lat[k] }
	}
	rep.pctRounds("session_p50_ms", "ms", r, sessions, 0.5)
	rep.pctRounds("session_p90_ms", "ms", r, sessions, 0.9)
	rep.pctRounds("mine_p50_ms", "ms", r, class(opMine), 0.5)
	rep.pctRounds("mine_p99_ms", "ms", r, class(opMine), 0.99)
	rep.pctRounds("put_p50_ms", "ms", r, class(opPut), 0.5)
	rep.pctRounds("put_p90_ms", "ms", r, class(opPut), 0.9)
	rep.pctRounds("save_p50_ms", "ms", r, class(opSave), 0.5)
	rep.pctRounds("save_p90_ms", "ms", r, class(opSave), 0.9)
	rep.pctRounds("read_p50_ms", "ms", r, class(opRead), 0.5)
	rep.pctRounds("read_p90_ms", "ms", r, class(opRead), 0.9)
	return rep
}

// printReport writes the metric table, then the result object as the last
// line.
func printReport(b *bench, rep *report) {
	fmt.Printf("svcbench %s seed %d: %d ops attempted, %d failed\n",
		b.w.name, b.seed, b.tally.attempted, b.tally.failed)
	for _, m := range rep.metrics {
		fmt.Printf("  %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range rep.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{b.tally.failed == 0 && len(rep.errs) == 0, b.tally.attempted, b.tally.failed, ms})
	if err != nil {
		panic(err) // fixed schema of numbers and strings
	}
	os.Stdout.Write(append(out, '\n'))
}
