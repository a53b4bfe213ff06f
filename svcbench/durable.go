package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sort"

	"gogreen/internal/server"
)

// durability closes the measured service and, for a workload with a
// restart check, plays the set-up, the warm-up and the last
// restartSessions sessions of every client again, untimed, on a service
// with a data dir. It then closes that service, re-opens its data dir and
// checks that every acknowledged database and saved set survived: stats,
// saved-set contents, and a fresh mine at each saved threshold (which reads
// the database content itself). Every op is checked as in the measured
// phase; a lost or changed write is a failed op.
//
// The measured service runs in memory: a neighbour's writes to the shared
// disk doubled relax-ladder's session time, so fsync latency would make the
// end-to-end figures follow the disk rather than the service. The store's
// write path is timed per layer by the replay instead.
func (b *bench) durability(st *stack) error {
	if err := st.close(); err != nil {
		return err
	}
	if b.w.restartSessions == 0 {
		return nil
	}
	dir := filepath.Join(b.dir, "restart")
	st, _, err := b.setup(dir, nil)
	if err != nil {
		return err
	}
	last := len(b.p.clients[0])
	b.count(runSessions(st.h, b.p, b.exp, max(last-b.w.restartSessions, b.p.warm), last, false, nil))
	if err := st.close(); err != nil {
		return err
	}
	st, err = openStack(b.w, dir, nil)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(b.p.final))
	for id := range b.p.final {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	res := &result{}
	var rec recorder
	call := func(method, path, tenant string, body []byte) []byte {
		req, _ := http.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set(server.TenantHeader, tenant)
		rec.reset()
		st.h.ServeHTTP(&rec, req)
		res.attempted++
		if rec.code != http.StatusOK {
			res.fail("after restart: %s %s: status %d: %.200s", method, path, rec.code, rec.body.Bytes())
			return nil
		}
		return rec.body.Bytes()
	}
	for _, id := range ids {
		fin := b.p.final[id]
		db := b.p.contents[fin.content].db
		if body := call(http.MethodGet, "/db/"+id, fin.tenant, nil); body != nil {
			var info server.DBInfo
			if json.Unmarshal(body, &info) != nil || info.Tuples != db.Len() || info.NumItems != db.NumItems() {
				res.fail("after restart: %s: stats %.200s, want %d tuples %d items", id, body, db.Len(), db.NumItems())
			}
		}
		names := make([]string, 0, len(fin.sets))
		for name := range fin.sets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ref := fin.sets[name]
			want := b.exp[expKey{ref.content, ref.minCount}]
			if body := call(http.MethodGet, "/db/"+id+"/patterns/"+name, fin.tenant, nil); body != nil {
				var pats []server.MinePattern
				var h uint64
				err := json.Unmarshal(body, &pats)
				for _, p := range pats {
					h += patternHash(p.Items, p.Support)
				}
				if err != nil || len(pats) != want.count || h != want.hash {
					res.fail("after restart: %s/%s: %d patterns, want %d", id, name, len(pats), want.count)
				}
			}
			req, _ := json.Marshal(server.MineRequest{MinCount: ref.minCount, Use: "fresh"})
			if body := call(http.MethodPost, "/db/"+id+"/mine", fin.tenant, req); body != nil {
				var resp server.MineResponse
				if json.Unmarshal(body, &resp) != nil || resp.Count != want.count {
					res.fail("after restart: %s fresh mine at %d: %.200s, want %d patterns", id, ref.minCount, body, want.count)
				}
			}
		}
	}
	b.count(res)
	return st.close()
}
