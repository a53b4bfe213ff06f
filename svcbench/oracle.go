package main

import (
	"hash/fnv"
	"sort"

	"gogreen/internal/apriori"
	"gogreen/internal/dataset"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
)

// expKey names one (content, threshold) pair the log asks about.
type expKey struct {
	content, minCount int
}

// expected is the oracle's answer for one pair: the pattern count and an
// order-independent hash of the complete pattern set.
type expected struct {
	count int
	hash  uint64
}

// oracle computes the expected answer of every distinct (content,
// threshold) pair in the log, outside every timed phase: one mine per
// content at its lowest requested threshold, then a filter per threshold.
func oracle(p *plan, useApriori bool) map[expKey]expected {
	want := map[int]map[int]bool{}
	note := func(o op) {
		if o.kind == opPut {
			return
		}
		if want[o.content] == nil {
			want[o.content] = map[int]bool{}
		}
		want[o.content][o.minCount] = true
	}
	for _, sessions := range p.clients {
		for _, s := range sessions {
			for _, o := range s {
				note(o)
			}
		}
	}
	for _, st := range p.final {
		for _, ref := range st.sets {
			note(op{kind: opSave, content: ref.content, minCount: ref.minCount})
		}
	}
	out := map[expKey]expected{}
	for c, mins := range want {
		lo := 0
		for m := range mins {
			if lo == 0 || m < lo {
				lo = m
			}
		}
		all := mineAll(p.contents[c].db, lo, useApriori)
		for m := range mins {
			var e expected
			for _, pat := range all {
				if pat.Support >= m {
					e.count++
					e.hash += patternHash(pat.Items, pat.Support)
				}
			}
			out[expKey{c, m}] = e
		}
	}
	return out
}

func mineAll(db *dataset.DB, minCount int, useApriori bool) []mining.Pattern {
	var col mining.Collector
	var err error
	if useApriori {
		err = apriori.New().Mine(db, minCount, &col)
	} else {
		err = hmine.New().Mine(db, minCount, &col)
	}
	if err != nil {
		panic("oracle mine: " + err.Error())
	}
	return col.Patterns
}

// patternHash hashes one pattern independently of item order; set hashes
// are sums, so they are independent of pattern order too.
func patternHash(items []dataset.Item, support int) uint64 {
	sorted := make([]dataset.Item, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := fnv.New64a()
	var b [4]byte
	for _, it := range sorted {
		b[0], b[1], b[2], b[3] = byte(it), byte(it>>8), byte(it>>16), byte(it>>24)
		h.Write(b[:])
	}
	b[0], b[1], b[2], b[3] = byte(support), byte(support>>8), byte(support>>16), 0xff
	h.Write(b[:])
	return h.Sum64()
}
