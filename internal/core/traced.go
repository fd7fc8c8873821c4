package core

import (
	"context"
	"time"

	"github.com/spine-index/spine/internal/trace"
)

// Traced query paths. The descent and the occurrence scan each exist
// once; these two wrappers turn their accounting into spans when the
// context carries a trace. When it does not, the added cost is one
// context lookup per query.

// descendOnCtx walks the valid path for p. Under a trace it records a
// descend span whose Nodes equals len(p) (the §4.1 convention — one
// node examined per pattern character, matching ScanResult.NodesChecked)
// with the rib/extrib hop and word-compare counters, plus ribs/extribs
// spans isolating the time spent off the backbone.
func descendOnCtx[S store](ctx context.Context, s S, p []byte) (end int32, ok bool) {
	tr := trace.FromContext(ctx)
	if tr == nil {
		return endNodeOn(s, p, nil)
	}
	var acct descentAcct
	sp := tr.Start(trace.StageDescend)
	end, ok = endNodeOn(s, p, &acct)
	sp.C = trace.Counters{Nodes: int64(len(p)), RibHops: acct.ribHops, ExtribHops: acct.extribHops, WordsCompared: acct.words}
	sp.End()
	if acct.ribHops > 0 {
		tr.Add(trace.StageRibs, acct.ribsDur, trace.Counters{RibHops: acct.ribHops})
	}
	if acct.extribHops > 0 {
		tr.Add(trace.StageExtribs, acct.extribsDur, trace.Counters{ExtribHops: acct.extribHops})
	}
	return end, ok
}

// occTracedOn is occEachOn recorded as the occurrences span of ctx's
// trace. Its Nodes is exactly what the caller adds to NodesChecked, so
// the per-stage counters partition the reported total.
func occTracedOn[S store](ctx context.Context, s S, sc *scanScratch, first, patlen int32, emit func(j int32) bool) (scanStats, int32, error) {
	tr := trace.FromContext(ctx)
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	st, stopped, err := occEachOn(ctx, s, sc, first, patlen, emit)
	st.record(tr, trace.StageOccurrences, start)
	return st, stopped, err
}

// EndNodeCtx is EndNode with tracing: when ctx carries a trace the
// descent records descend/ribs/extribs spans.
func (idx *Index) EndNodeCtx(ctx context.Context, p []byte) (end int32, ok bool) {
	return descendOnCtx(ctx, idx, p)
}

// EndNodeCtx is the compact-layout variant; see Index.EndNodeCtx. A
// pattern containing a letter outside the alphabet occurs nowhere; the
// failed encoding still records the pattern walk's node count.
func (c *CompactIndex) EndNodeCtx(ctx context.Context, p []byte) (end int32, ok bool) {
	codes, ok := c.encodePattern(p)
	if !ok {
		if tr := trace.FromContext(ctx); tr != nil {
			tr.Add(trace.StageDescend, 0, trace.Counters{Nodes: int64(len(p))})
		}
		return 0, false
	}
	return descendOnCtx(ctx, c, codes)
}
