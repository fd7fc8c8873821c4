package obs

import (
	"context"
	"time"

	"github.com/spine-index/spine/internal/trace"
)

// QueryCtx is one HTTP request's correlation identity plus the
// annotations its handler accumulates for the wide event. It travels by
// context through Querier → Cached → Sharded → batch, so every layer —
// including each shard leg's goroutine — can mint child spans off the
// same trace. A nil *QueryCtx is valid and every method no-ops, keeping
// un-instrumented paths (library use, tests) free.
//
// Identity fields are immutable after Begin. Annotation setters are
// called only from the handler goroutine before the deferred
// EmitQuery; shard legs read only identity and the pattern fingerprint,
// which the handler stamps before the fan-out starts, so the goroutine
// creation edge orders those reads.
type QueryCtx struct {
	pipe       *Pipeline
	endpoint   string
	requestID  string
	tp         TraceParent // this request's identity: trace id + server span
	parentSpan SpanID      // client's span from the ingested traceparent

	// Handler annotations.
	pattern  trace.Fingerprint
	kind     string
	limit    int
	outcome  Outcome
	errCode  string
	suppress bool
}

// Begin opens a request's correlation scope. incoming is the parsed
// traceparent (zero value when the client sent none or sent garbage):
// its trace id is adopted and its span id becomes the parent; otherwise
// a fresh trace starts. requestID is the sanitized X-Request-Id (or a
// freshly minted one). A nil pipeline returns nil — correlation off.
func Begin(pipe *Pipeline, endpoint, requestID string, incoming TraceParent) *QueryCtx {
	if pipe == nil {
		return nil
	}
	qc := &QueryCtx{pipe: pipe, endpoint: endpoint, requestID: requestID}
	if incoming.IsZero() {
		qc.tp = TraceParent{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	} else {
		qc.tp = TraceParent{TraceID: incoming.TraceID, SpanID: NewSpanID(), Flags: incoming.Flags | FlagSampled}
		qc.parentSpan = incoming.SpanID
	}
	return qc
}

type ctxKey struct{}

// NewContext returns a context carrying qc; a nil qc returns ctx
// unchanged.
func NewContext(ctx context.Context, qc *QueryCtx) context.Context {
	if qc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, qc)
}

// FromContext returns the request's QueryCtx, or nil when correlation
// is off for this query.
func FromContext(ctx context.Context) *QueryCtx {
	qc, _ := ctx.Value(ctxKey{}).(*QueryCtx)
	return qc
}

// RequestID returns the request's correlation id ("" on nil).
func (qc *QueryCtx) RequestID() string {
	if qc == nil {
		return ""
	}
	return qc.requestID
}

// Exporting reports whether the request's events reach a sink (see
// Pipeline.Exporting); false on nil.
func (qc *QueryCtx) Exporting() bool {
	return qc != nil && qc.pipe.Exporting()
}

// TraceParent returns the request's own trace identity — what the
// server echoes back to the client and what child spans parent on.
func (qc *QueryCtx) TraceParent() TraceParent {
	if qc == nil {
		return TraceParent{}
	}
	return qc.tp
}

// SetPattern stamps the query's pattern fingerprint. Call before the
// querier runs so shard legs can copy it.
func (qc *QueryCtx) SetPattern(fp trace.Fingerprint) {
	if qc == nil {
		return
	}
	qc.pattern = fp
}

// SetQuery annotates the query kind and (findall) limit.
func (qc *QueryCtx) SetQuery(kind string, limit int) {
	if qc == nil {
		return
	}
	qc.kind, qc.limit = kind, limit
}

// SetOutcome annotates the result summary once the querier answers.
func (qc *QueryCtx) SetOutcome(o Outcome) {
	if qc == nil {
		return
	}
	qc.outcome = o
}

// SetError annotates the stable error slug the response carried.
func (qc *QueryCtx) SetError(code string) {
	if qc == nil {
		return
	}
	qc.errCode = code
}

// SuppressQueryEvent marks the request as already covered by per-item
// events (the batch handler emits one event per item instead of one per
// request).
func (qc *QueryCtx) SuppressQueryEvent() {
	if qc == nil {
		return
	}
	qc.suppress = true
}

// EmitQuery builds and emits the request's wide event from the
// accumulated annotations and the query's trace records (nil when the
// query was not traced). The middleware calls it once per completed
// query request; suppressed (batch) requests no-op. The W3C ids and the
// stage breakdown are filled in only when the event will be exported.
func (qc *QueryCtx) EmitQuery(status int, start time.Time, elapsed time.Duration, recs []trace.Record) {
	if qc == nil || qc.suppress {
		return
	}
	e := qc.event(EventQuery, qc.tp.SpanID, qc.parentSpan)
	e.Time = start
	e.Kind = qc.kind
	e.Limit = qc.limit
	e.Pattern = qc.pattern
	e.Source = qc.outcome.Source
	e.Status = status
	e.Error = qc.errCode
	e.DurationUs = elapsed.Microseconds()
	e.NodesChecked = qc.outcome.NodesChecked
	e.ResultCount = qc.outcome.ResultCount
	e.Truncated = qc.outcome.Truncated
	if qc.pipe.Exporting() {
		e.Stages = trace.Summarize(recs)
	}
	qc.pipe.Emit(e)
}

// event starts an event of type typ in qc's request: its identity, with
// span and parent as the event's own and parent span. The W3C ids are
// formatted only when the pipeline exports; nothing else reads them.
func (qc *QueryCtx) event(typ string, span, parent SpanID) Event {
	e := Event{
		Type:       typ,
		RequestID:  qc.requestID,
		Endpoint:   qc.endpoint,
		Shard:      -1,
		BatchIndex: -1,
	}
	if qc.pipe.Exporting() {
		e.TraceID = qc.tp.TraceID.String()
		e.SpanID = span.String()
		e.ParentSpanID = spanOrEmpty(parent)
	}
	return e
}

// EmitBatchItem emits one batch item's event as a child span of the
// batch request. durUs is the item's amortized share of the engine
// time; errCode is the item's stable error slug ("" on success).
func (qc *QueryCtx) EmitBatchItem(index int, pattern trace.Fingerprint, limit int, out Outcome, errCode string, durUs int64) {
	if qc == nil {
		return
	}
	e := qc.event(EventBatchItem, NewSpanID(), qc.tp.SpanID)
	e.Time = time.Now()
	e.Kind = "findall"
	e.Limit = limit
	e.BatchIndex = index
	e.Pattern = pattern
	e.Source = out.Source
	e.Error = errCode
	e.DurationUs = durUs
	e.NodesChecked = out.NodesChecked
	e.ResultCount = out.ResultCount
	e.Truncated = out.Truncated
	qc.pipe.Emit(e)
}

// Leg is one shard's in-progress share of a fan-out. Its span id is the
// identity a future cross-process tier would propagate to the remote
// shard ("00-<trace>-<leg span>-<flags>").
type Leg struct {
	qc    *QueryCtx
	shard int
	span  SpanID
	start time.Time
}

// StartLeg opens a shard leg's span; nil-safe (returns nil when
// correlation is off, and a nil *Leg's End no-ops).
func (qc *QueryCtx) StartLeg(shard int) *Leg {
	if qc == nil {
		return nil
	}
	return &Leg{qc: qc, shard: shard, span: NewSpanID(), start: time.Now()}
}

// TraceParent returns the leg's outgoing trace identity for
// cross-process propagation.
func (l *Leg) TraceParent() TraceParent {
	if l == nil {
		return TraceParent{}
	}
	return TraceParent{TraceID: l.qc.tp.TraceID, SpanID: l.span, Flags: l.qc.tp.Flags}
}

// End emits the shard-leg event: the leg's wall time, its share of the
// work, and — when the query is traced — its stage breakdown.
func (l *Leg) End(nodes int64, resultCount int, err error, stages []trace.StageSummary) {
	if l == nil {
		return
	}
	qc := l.qc
	e := qc.event(EventShardLeg, l.span, qc.tp.SpanID)
	e.Time = l.start
	e.Kind = qc.kind
	e.Shard = l.shard
	e.Pattern = qc.pattern
	e.Error = errSlug(err)
	e.DurationUs = time.Since(l.start).Microseconds()
	e.NodesChecked = nodes
	e.ResultCount = resultCount
	e.Stages = stages
	qc.pipe.Emit(e)
}

func spanOrEmpty(s SpanID) string {
	if s.IsZero() {
		return ""
	}
	return s.String()
}
