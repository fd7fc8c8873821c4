package obs

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/spine-index/spine/internal/trace"
)

func testEvent(typ string) Event {
	return Event{Type: typ, Endpoint: "contains", Kind: "contains", DurationUs: 10}
}

func TestPipelineExportsAndCounts(t *testing.T) {
	sink := NewCollectorSink()
	p := NewPipeline(Config{Buffer: 64, BatchSize: 8}, sink)
	for i := 0; i < 20; i++ {
		p.Emit(testEvent(EventQuery))
	}
	p.Emit(testEvent(EventBatchItem))
	p.Emit(testEvent(EventShardLeg))
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := len(sink.Events()); got != 22 {
		t.Fatalf("exported %d events, want 22", got)
	}
	st := p.Stats()
	if st.EmittedQuery != 20 || st.EmittedBatchItems != 1 || st.EmittedShardLegs != 1 {
		t.Fatalf("emit counters: %+v", st)
	}
	if st.Dropped != 0 || st.Exported != 22 {
		t.Fatalf("dropped=%d exported=%d, want 0/22", st.Dropped, st.Exported)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !sink.Closed() {
		t.Fatal("sink not closed")
	}
}

// TestPipelineNeverBlocks is the acceptance-criteria test: a sink stuck
// forever must not stall Emit; overflow surfaces as the dropped
// counter. Run under -race by make race / the CI obs-smoke job.
func TestPipelineNeverBlocks(t *testing.T) {
	sink := NewBlockingSink()
	p := NewPipeline(Config{Buffer: 4, BatchSize: 1, FlushInterval: time.Millisecond}, sink)
	defer func() {
		sink.Release()
		p.Close(context.Background())
	}()

	const emitters, perEmitter = 8, 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				p.Emit(testEvent(EventQuery))
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stuck sink")
	}
	st := p.Stats()
	if st.EmittedQuery != emitters*perEmitter {
		t.Fatalf("emitted %d, want %d", st.EmittedQuery, emitters*perEmitter)
	}
	if st.Dropped == 0 {
		t.Fatal("expected dropped events with a blocked sink and a 4-slot buffer")
	}
}

func TestPipelineCloseDrains(t *testing.T) {
	sink := NewCollectorSink()
	p := NewPipeline(Config{Buffer: 128, BatchSize: 64, FlushInterval: time.Hour}, sink)
	for i := 0; i < 10; i++ {
		p.Emit(testEvent(EventQuery))
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := len(sink.Events()); got != 10 {
		t.Fatalf("close exported %d events, want 10", got)
	}
	// Idempotent.
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPipelineFeedsRED(t *testing.T) {
	red := NewRED(time.Millisecond)
	p := NewPipeline(Config{Buffer: 1, RED: red}) // tiny buffer: drops must not affect RED
	defer p.Close(context.Background())
	for i := 0; i < 50; i++ {
		p.Emit(Event{Type: EventQuery, Endpoint: "contains", Kind: "contains", DurationUs: 5})
	}
	p.Emit(Event{Type: EventShardLeg, Endpoint: "contains", Kind: "contains", Shard: 0, DurationUs: 5})
	w := red.Window("", "", time.Minute)
	if w.Count != 50 {
		t.Fatalf("RED total count %d, want 50 (shard legs excluded, drops included)", w.Count)
	}
}

// TestPipelineREDCountsDroppedEvents: with a sink stuck and a 1-slot
// queue most events are dropped from export, yet the RED rollup has
// counted every query event emitted.
func TestPipelineREDCountsDroppedEvents(t *testing.T) {
	red := NewRED(time.Millisecond)
	sink := NewBlockingSink()
	p := NewPipeline(Config{Buffer: 1, BatchSize: 1, RED: red}, sink)
	defer func() {
		sink.Release()
		p.Close(context.Background())
	}()
	const n = 50
	for i := 0; i < n; i++ {
		p.Emit(Event{Type: EventQuery, Endpoint: "contains", Kind: "contains", DurationUs: 5})
	}
	st := p.Stats()
	if st.EmittedQuery != n || st.Dropped == 0 {
		t.Fatalf("emitted %d dropped %d, want %d emitted and some dropped", st.EmittedQuery, st.Dropped, n)
	}
	if w := red.Window("", "", time.Minute); w.Count != n {
		t.Fatalf("RED count %d with %d dropped, want all %d", w.Count, st.Dropped, n)
	}
}

// TestZeroSinkPipelineIdle: without sinks there is no export queue, so
// -obs-buffer reserves nothing, and Flush and Close return at once.
func TestZeroSinkPipelineIdle(t *testing.T) {
	p := NewPipeline(Config{Buffer: 1 << 20})
	if p.ch != nil {
		t.Fatal("a zero-sink pipeline allocated an export queue")
	}
	p.Emit(testEvent(EventQuery))
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Exported != 1 || st.Dropped != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want 1 exported, 0 dropped, empty queue", st)
	}
}

func TestNilPipelineSafe(t *testing.T) {
	var p *Pipeline
	p.Emit(testEvent(EventQuery))
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Enabled {
		t.Fatal("nil pipeline reports enabled")
	}
	if p.RED() != nil {
		t.Fatal("nil pipeline returned a RED")
	}
}

func TestQueryCtxNilSafe(t *testing.T) {
	var qc *QueryCtx
	qc.SetPattern(trace.FingerprintOf([]byte("abc")))
	qc.SetQuery("contains", 0)
	qc.SetOutcome(Outcome{})
	qc.SetError("internal")
	qc.SuppressQueryEvent()
	qc.EmitQuery(200, time.Time{}, 0, nil)
	qc.EmitBatchItem(0, trace.FingerprintOf([]byte("abc")), 0, Outcome{}, "", 0)
	if qc.RequestID() != "" || !qc.TraceParent().IsZero() {
		t.Fatal("nil QueryCtx leaked identity")
	}
	leg := qc.StartLeg(0)
	if leg != nil {
		t.Fatal("nil QueryCtx produced a leg")
	}
	leg.End(0, 0, nil, nil)
	if !leg.TraceParent().IsZero() {
		t.Fatal("nil leg has identity")
	}
	if Begin(nil, "contains", "id", TraceParent{}) != nil {
		t.Fatal("Begin with nil pipeline should return nil")
	}
}

func TestBeginAdoptsIncomingTrace(t *testing.T) {
	p := NewPipeline(Config{})
	defer p.Close(context.Background())
	in, _ := ParseTraceParent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	qc := Begin(p, "contains", "req1", in)
	tp := qc.TraceParent()
	if tp.TraceID != in.TraceID {
		t.Fatal("did not adopt incoming trace id")
	}
	if tp.SpanID == in.SpanID || tp.SpanID.IsZero() {
		t.Fatal("server span must be fresh")
	}
	if tp.Flags&FlagSampled == 0 {
		t.Fatal("sampled flag not set")
	}

	fresh := Begin(p, "contains", "req2", TraceParent{})
	if fresh.TraceParent().IsZero() {
		t.Fatal("no fresh trace minted")
	}
}

func TestLegEventParentage(t *testing.T) {
	sink := NewCollectorSink()
	p := NewPipeline(Config{}, sink)
	defer p.Close(context.Background())
	qc := Begin(p, "findall", "req1", TraceParent{})
	qc.SetQuery("findall", 10)
	leg := qc.StartLeg(3)
	outgoing := leg.TraceParent()
	if outgoing.TraceID != qc.TraceParent().TraceID {
		t.Fatal("leg must share the request's trace id")
	}
	leg.End(42, 7, nil, nil)
	qc.SetOutcome(Outcome{Source: "scan", NodesChecked: 42, ResultCount: 7})
	qc.EmitQuery(200, time.Now(), time.Millisecond, nil)
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	legEv, qEv := evs[0], evs[1]
	if legEv.Type != EventShardLeg || qEv.Type != EventQuery {
		t.Fatalf("event order/types: %s, %s", legEv.Type, qEv.Type)
	}
	if legEv.TraceID != qEv.TraceID {
		t.Fatal("trace ids differ between leg and query")
	}
	if legEv.ParentSpanID != qEv.SpanID {
		t.Fatalf("leg parent %q != query span %q", legEv.ParentSpanID, qEv.SpanID)
	}
	if legEv.SpanID != outgoing.SpanID.String() {
		t.Fatal("leg span id differs from its outgoing traceparent")
	}
	if legEv.Shard != 3 || legEv.NodesChecked != 42 || legEv.ResultCount != 7 {
		t.Fatalf("leg payload: %+v", legEv)
	}
	if qEv.RequestID != "req1" || legEv.RequestID != "req1" {
		t.Fatal("request id not stamped on both events")
	}
}
