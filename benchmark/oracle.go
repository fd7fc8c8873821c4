package main

import (
	"encoding/json"
	"fmt"
	"index/suffixarray"
	"sort"

	"github.com/spine-index/spine"
)

// oracle computes expected answers with the standard library's suffix
// array over the same corpus — no package of this repository — so an
// index bug cannot hide in a shared helper.
type oracle struct{ sa *suffixarray.Index }

func newOracle(text []byte) *oracle { return &oracle{sa: suffixarray.New(text)} }

// want is the expected answer for one pattern.
type want struct {
	count     int   // total occurrences
	first     int   // smallest offset, -1 when absent
	positions []int // the first limit offsets ascending; kept for findall and batch only
}

func (o *oracle) answer(p []byte, limit int, keepPositions bool) want {
	offs := o.sa.Lookup(p, -1)
	w := want{count: len(offs), first: -1}
	if len(offs) == 0 {
		return w
	}
	if !keepPositions {
		w.first = offs[0]
		for _, x := range offs[1:] {
			if x < w.first {
				w.first = x
			}
		}
		return w
	}
	sort.Ints(offs)
	w.first = offs[0]
	if limit > 0 && len(offs) > limit {
		offs = offs[:limit]
	}
	w.positions = offs
	return w
}

// expect precomputes the answers of a schedule, one []want per op.
func (o *oracle) expect(ops []op) [][]want {
	out := make([][]want, len(ops))
	for i, op := range ops {
		ws := make([]want, len(op.pats))
		for j, p := range op.pats {
			ws[j] = o.answer(p, op.limit, op.kind == opFindAll || op.kind == opBatch)
		}
		out[i] = ws
	}
	return out
}

// got is an answer as the program gave it, from an HTTP body or from a
// QueryResult.
type got struct {
	found     bool
	first     int
	count     int
	positions []int
	truncated bool
}

// check compares one pattern's answer with the oracle's. Each kind
// checks only what its response carries.
func check(kind opKind, limit int, w want, g got) error {
	switch kind {
	case opContains:
		if g.found != (w.count > 0) {
			return fmt.Errorf("contains=%v, oracle has %d occurrences", g.found, w.count)
		}
	case opFind:
		if g.first != w.first {
			return fmt.Errorf("position=%d, oracle first=%d", g.first, w.first)
		}
	case opCount:
		if g.count != w.count {
			return fmt.Errorf("count=%d, oracle count=%d", g.count, w.count)
		}
	case opFindAll, opBatch:
		if g.count != len(g.positions) {
			return fmt.Errorf("count=%d but %d positions", g.count, len(g.positions))
		}
		if len(g.positions) != len(w.positions) {
			return fmt.Errorf("%d positions, oracle expects %d (limit %d, %d occurrences)",
				len(g.positions), len(w.positions), limit, w.count)
		}
		for i, x := range g.positions {
			if x != w.positions[i] {
				return fmt.Errorf("positions[%d]=%d, oracle has %d", i, x, w.positions[i])
			}
		}
		// The engine flags truncation when it stops at the limit without
		// knowing whether more follow, so exactly limit occurrences may
		// read either way; the other two cases are determined.
		switch {
		case limit > 0 && w.count > limit && !g.truncated:
			return fmt.Errorf("truncated=false with %d occurrences over limit %d", w.count, limit)
		case (limit <= 0 || w.count < limit) && g.truncated:
			return fmt.Errorf("truncated=true with %d occurrences under limit %d", w.count, limit)
		}
	}
	return nil
}

// verifyBody checks an HTTP response body of op against its expected
// answers; the error names the first offending pattern.
func verifyBody(o op, ws []want, body []byte) error {
	fail := func(i int, err error) error {
		return fmt.Errorf("%s %q: %w", o.kind, o.pats[i], err)
	}
	if o.kind != opBatch {
		// One shape holds every single-pattern reply; the field its kind
		// must carry is a pointer, so a reply without it is caught.
		var r struct {
			Contains  *bool
			Position  *int
			Count     *int
			Positions []int
			Truncated bool
		}
		bad := func() error { return fail(0, fmt.Errorf("bad body %.80q", body)) }
		if err := json.Unmarshal(body, &r); err != nil {
			return bad()
		}
		var g got
		switch {
		case o.kind == opContains && r.Contains != nil:
			g.found = *r.Contains
		case o.kind == opFind && r.Position != nil:
			g.first = *r.Position
		case o.kind == opCount && r.Count != nil:
			g.count = *r.Count
		case o.kind == opFindAll && r.Count != nil:
			g = got{count: *r.Count, positions: r.Positions, truncated: r.Truncated}
		default:
			return bad()
		}
		if err := check(o.kind, o.limit, ws[0], g); err != nil {
			return fail(0, err)
		}
		return nil
	}
	var r struct {
		Results []struct {
			Status    string
			Count     int
			Positions []int
			Truncated bool
		}
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fail(0, fmt.Errorf("bad body %.80q", body))
	}
	if len(r.Results) != len(o.pats) {
		return fail(0, fmt.Errorf("%d batch items for %d patterns", len(r.Results), len(o.pats)))
	}
	for i, it := range r.Results {
		if it.Status != "ok" {
			return fail(i, fmt.Errorf("item status %q", it.Status))
		}
		g := got{count: it.Count, positions: it.Positions, truncated: it.Truncated}
		if err := check(opBatch, o.limit, ws[i], g); err != nil {
			return fail(i, err)
		}
	}
	return nil
}

// verifyResult checks an in-process QueryResult the same way.
func verifyResult(o op, i int, w want, r spine.QueryResult) error {
	g := got{found: r.Found, first: r.Position, count: r.Count, positions: r.Positions, truncated: r.Truncated}
	if o.kind == opFindAll || o.kind == opBatch {
		g.count = len(r.Positions)
	}
	if err := check(o.kind, o.limit, w, g); err != nil {
		return fmt.Errorf("%s %q (in-process): %w", o.kind, o.pats[i], err)
	}
	return nil
}
