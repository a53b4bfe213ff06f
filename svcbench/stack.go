package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"gogreen/internal/metrics"
	"gogreen/internal/server"
)

// stack is the service under test, assembled from the repo's public
// constructors exactly as rpserved assembles it: one server with its
// in-process shards, or (routed) a router in front of shard servers that
// listen on loopback.
type stack struct {
	h http.Handler // what clients call

	srv *server.Server // single-process service; nil when routed

	shards  []*server.Server
	https   []*http.Server
	serving chan error
	router  *server.Router
	addrs   []string
}

// snapshotInterval is longer than any run, so no compaction fires during a
// measured phase and store.compactions repeats exactly across runs.
const snapshotInterval = 24 * time.Hour

func serverOptions(w *workload, dir string) []server.Option {
	opts := []server.Option{server.WithSnapshotInterval(snapshotInterval)}
	if w.routed {
		// The in-process service splits its budget across shards; each shard
		// process gets the same slice.
		opts = append(opts, server.WithCacheBudget(w.budget/int64(w.shards)))
	} else {
		opts = append(opts, server.WithShards(w.shards))
		if w.budget > 0 {
			opts = append(opts, server.WithCacheBudget(w.budget))
		}
	}
	if dir != "" {
		opts = append(opts, server.WithDataDir(dir))
	}
	return opts
}

// openStack starts the workload's service, durable on dir, or in memory
// when dir is empty. wrap, when set, wraps each shard server's handler
// (routed stacks only) so the tracer sees the span the shard itself spends
// on a request.
func openStack(w *workload, dir string, wrap wrapFunc) (*stack, error) {
	if !w.routed {
		srv, err := server.Open(serverOptions(w, dir)...)
		if err != nil {
			return nil, fmt.Errorf("open server: %w", err)
		}
		return &stack{h: srv.Handler(), srv: srv}, nil
	}
	st := &stack{serving: make(chan error, w.shards)} // one send per Serve goroutine
	for i := 0; i < w.shards; i++ {
		srv, err := server.Open(append(serverOptions(w, dir), server.WithShardIndex(i))...)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("open shard %d: %w", i, err)
		}
		st.shards = append(st.shards, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		hs := &http.Server{Handler: h}
		st.https = append(st.https, hs)
		st.addrs = append(st.addrs, ln.Addr().String())
		go func() { st.serving <- hs.Serve(ln) }()
	}
	rt, err := server.NewRouter(st.addrs)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	st.router = rt
	st.h = rt.Handler()
	return st, nil
}

// counters sums every counter and gauge the stack exports on /metrics (one
// registry per shard server when routed).
func (st *stack) counters() map[string]int64 {
	regs := []*metrics.Registry{}
	if st.srv != nil {
		regs = append(regs, st.srv.Registry())
	}
	for _, s := range st.shards {
		regs = append(regs, s.Registry())
	}
	out := map[string]int64{}
	for _, r := range regs {
		snap := r.Snapshot()
		for k, v := range snap.Counters {
			out[k] += v
		}
		for k, v := range snap.Gauges {
			out[k] += v
		}
	}
	return out
}

// close stops the router, the listeners (waiting for each Serve to return)
// and the servers.
func (st *stack) close() error {
	var errs []error
	if st.router != nil {
		errs = append(errs, st.router.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range st.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	for range st.https {
		if err := <-st.serving; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, s := range append([]*server.Server{st.srv}, st.shards...) {
		if s != nil {
			errs = append(errs, s.Shutdown(ctx), s.Close())
		}
	}
	return errors.Join(errs...)
}
