package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Sink receives exported event batches. Export runs on the pipeline's
// single export goroutine and may block (disk, network, retries) — the
// pipeline absorbs that in its buffer and drops on overflow, so a slow
// sink never stalls the query path.
type Sink interface {
	Export(events []Event) error
	Close() error
}

// retryStatser is the optional sink capability reporting transport
// retries, folded into PipelineStats.
type retryStatser interface{ Retries() int64 }

// Config tunes a Pipeline.
type Config struct {
	// Buffer is the event queue capacity; once full, new events are
	// dropped (and counted) rather than blocking the emitter. <= 0
	// picks 4096.
	Buffer int
	// BatchSize is the largest batch handed to sinks; <= 0 picks 128.
	BatchSize int
	// FlushInterval bounds how long a non-full batch waits; <= 0 picks
	// one second.
	FlushInterval time.Duration
	// RED, when set, is updated synchronously on Emit for query and
	// batch-item events (a few atomic-cheap bucket updates), so the
	// /debug/dash rollups and SLO math stay exact even when the export
	// buffer overflows and drops events.
	RED *RED
}

func (c Config) withDefaults() Config {
	if c.Buffer <= 0 {
		c.Buffer = 4096
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = time.Second
	}
	return c
}

// Pipeline is the bounded async exporter: Emit enqueues without ever
// blocking (dropping and counting on overflow), a single background
// goroutine batches events out to the sinks. A nil *Pipeline is valid
// and inert, so callers thread one unconditionally.
type Pipeline struct {
	cfg   Config
	sinks []Sink
	red   *RED

	ch     chan Event
	flushc chan chan struct{}
	quit   chan struct{}
	done   chan struct{}

	emittedQuery atomic.Int64
	emittedItem  atomic.Int64
	emittedLeg   atomic.Int64
	dropped      atomic.Int64
	exported     atomic.Int64
	exportErrors atomic.Int64
}

// NewPipeline starts a pipeline exporting to sinks. Zero sinks is fine:
// the pipeline still feeds the RED rollup and counts events, but it has
// no queue and no export goroutine, and Flush and Close return at once.
func NewPipeline(cfg Config, sinks ...Sink) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:   cfg,
		sinks: sinks,
		red:   cfg.RED,
		done:  make(chan struct{}),
	}
	if len(sinks) == 0 {
		close(p.done)
		return p
	}
	p.ch = make(chan Event, cfg.Buffer)
	p.flushc = make(chan chan struct{})
	p.quit = make(chan struct{})
	go p.run()
	return p
}

// Exporting reports whether emitted events reach a sink. Without one,
// an event's only readers are the counters and the RED rollup, which
// use neither its W3C ids nor its stage breakdown, so emitters may
// leave those out. Nil-safe.
func (p *Pipeline) Exporting() bool {
	return p != nil && len(p.sinks) > 0
}

// Emit records one event: the RED rollup updates synchronously, then
// the event is enqueued for export without blocking — a full queue
// increments the dropped counter instead. With no sinks there is
// nothing to export to: the event counts as exported on the spot and
// never touches a queue. Nil-safe.
func (p *Pipeline) Emit(e Event) {
	if p == nil {
		return
	}
	switch e.Type {
	case EventQuery:
		p.emittedQuery.Add(1)
	case EventBatchItem:
		p.emittedItem.Add(1)
	case EventShardLeg:
		p.emittedLeg.Add(1)
	}
	if p.red != nil && e.Type != EventShardLeg {
		// Shard legs are sub-spans of a query already counted once;
		// folding them in would multiply the request rate by the shard
		// count.
		p.red.Observe(e)
	}
	if len(p.sinks) == 0 {
		p.exported.Add(1)
		return
	}
	select {
	case p.ch <- e:
	default:
		p.dropped.Add(1)
	}
}

func (p *Pipeline) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.FlushInterval)
	defer ticker.Stop()
	batch := make([]Event, 0, p.cfg.BatchSize)
	drain := func() {
		for {
			select {
			case e := <-p.ch:
				batch = append(batch, e)
				if len(batch) >= p.cfg.BatchSize {
					batch = p.export(batch)
				}
			default:
				return
			}
		}
	}
	for {
		select {
		case e := <-p.ch:
			batch = append(batch, e)
			if len(batch) >= p.cfg.BatchSize {
				batch = p.export(batch)
			}
		case <-ticker.C:
			batch = p.export(batch)
		case ack := <-p.flushc:
			drain()
			batch = p.export(batch)
			close(ack)
		case <-p.quit:
			drain()
			p.export(batch)
			for _, s := range p.sinks {
				if err := s.Close(); err != nil {
					p.exportErrors.Add(1)
				}
			}
			return
		}
	}
}

// export hands the batch to every sink and returns the reset batch.
// Sink errors are counted, not propagated: export is fire-and-forget
// by design, and each sink does its own retrying.
func (p *Pipeline) export(batch []Event) []Event {
	if len(batch) == 0 {
		return batch
	}
	for _, s := range p.sinks {
		if err := s.Export(batch); err != nil {
			p.exportErrors.Add(1)
		}
	}
	p.exported.Add(int64(len(batch)))
	return batch[:0]
}

// Flush drains everything enqueued so far through the sinks. It blocks
// (control path, not query path) until the worker acknowledges or ctx
// ends.
func (p *Pipeline) Flush(ctx context.Context) error {
	if !p.Exporting() {
		return nil
	}
	ack := make(chan struct{})
	select {
	case p.flushc <- ack:
	case <-p.done:
		return fmt.Errorf("obs: pipeline closed")
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ack:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue, exports the final batch, closes the sinks and
// stops the worker. Emit after Close still counts (and, with sinks,
// drops once the queue fills) but exports nothing.
func (p *Pipeline) Close(ctx context.Context) error {
	if p == nil {
		return nil
	}
	select {
	case <-p.done:
		return nil
	default:
	}
	close(p.quit)
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PipelineStats is the exporter's own health: how many events each type
// emitted, how many were dropped under backpressure (the explicit
// "exporter fell behind" signal), how many reached the sinks.
type PipelineStats struct {
	Enabled           bool  `json:"enabled"`
	EmittedQuery      int64 `json:"emittedQuery"`
	EmittedBatchItems int64 `json:"emittedBatchItems"`
	EmittedShardLegs  int64 `json:"emittedShardLegs"`
	Dropped           int64 `json:"dropped"`
	Exported          int64 `json:"exported"`
	ExportErrors      int64 `json:"exportErrors"`
	ExportRetries     int64 `json:"exportRetries"`
	QueueDepth        int   `json:"queueDepth"`
}

// Stats snapshots the pipeline's counters; a nil pipeline reports
// Enabled=false zeros.
func (p *Pipeline) Stats() PipelineStats {
	if p == nil {
		return PipelineStats{}
	}
	st := PipelineStats{
		Enabled:           true,
		EmittedQuery:      p.emittedQuery.Load(),
		EmittedBatchItems: p.emittedItem.Load(),
		EmittedShardLegs:  p.emittedLeg.Load(),
		Dropped:           p.dropped.Load(),
		Exported:          p.exported.Load(),
		ExportErrors:      p.exportErrors.Load(),
		QueueDepth:        len(p.ch),
	}
	for _, s := range p.sinks {
		if rs, ok := s.(retryStatser); ok {
			st.ExportRetries += rs.Retries()
		}
	}
	return st
}

// RED returns the pipeline's rollup (nil when not configured).
func (p *Pipeline) RED() *RED {
	if p == nil {
		return nil
	}
	return p.red
}
