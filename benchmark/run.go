package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/spine-index/spine"
)

// setupCycles is how many times a run builds the image and starts the
// server: setup_s takes the median cycle, since one build varies by a
// quarter on a shared host.
const setupCycles = 3

// serving is a serving workload set up and ready to measure: corpus,
// image, live server, schedule and expected answers.
type serving struct {
	cfg    *config
	w      *workload
	text   []byte
	orc    *oracle
	image  string
	builds []buildTimings
	srv    *server
	ops    []op
	wants  [][]want
	warm   int           // ops[:warm] were sent as warm-up
	setup  time.Duration // corpus + median(build, save, server start) + warm-up
}

func setupServing(cfg *config, w *workload) (_ *serving, err error) {
	s := &serving{cfg: cfg, w: w, image: filepath.Join(cfg.runDir, w.Name+".img")}
	defer func() {
		if err != nil {
			s.srv.stop()
		}
	}()
	t0 := time.Now()
	if s.text, err = genCorpus(cfg.seed, cfg.chars()); err != nil {
		return nil, err
	}
	genT := time.Since(t0)

	var cycles []float64
	for i := 0; i < setupCycles; i++ {
		s.srv.stop()
		c0 := time.Now()
		bt, err := buildImage(s.text, s.image, true)
		if err != nil {
			return nil, err
		}
		s.builds = append(s.builds, bt)
		if s.srv, err = startServer(cfg.serverBin, s.image, cfg.runDir, w.serverArgs()); err != nil {
			return nil, err
		}
		cycles = append(cycles, time.Since(c0).Seconds())
	}

	// Schedule and oracle are the benchmark's own work, not the
	// program's set-up: they stay out of setup_s.
	s.orc = newOracle(s.text)
	s.ops = w.gen(newGenerator(cfg.seed, w.Name, s.text), cfg.scale(w.schedOps))
	s.wants = s.orc.expect(s.ops)
	s.warm = cfg.scale(w.warmOps)
	cfg.note(w.Name, "schedule_hash", scheduleHash(s.ops))
	cfg.note(w.Name, "schedule_ops", fmt.Sprint(len(s.ops)))
	cfg.note(w.Name, "warmup_ops", fmt.Sprint(s.warm))
	cfg.note(w.Name, "server_argv", strings.Join(s.srv.argv, " "))

	w0 := time.Now()
	warm := runLoad(s.srv.base, s.ops, s.wants, 0, s.warm, cfg.clients, 0, nil)
	if warm.failed() > 0 {
		return nil, fmt.Errorf("%s warm-up: %d of %d failed, first: %s", w.Name, warm.failed(), warm.attempted, warm.firstFailure)
	}
	s.setup = genT + time.Duration((median(cycles)+time.Since(w0).Seconds())*float64(time.Second))
	return s, nil
}

// endToEndServing is the untraced run of a serving workload.
func endToEndServing(cfg *config, w *workload) (*result, error) {
	s, err := setupServing(cfg, w)
	if err != nil {
		return nil, err
	}
	defer s.srv.stop()
	s.orc = nil  // the suffix array has given its answers
	runtime.GC() // the timed loop allocates nothing, so this is the last collection until it ends
	before, err := s.srv.usage()
	if err != nil {
		return nil, err
	}
	load := runLoad(s.srv.base, s.ops, s.wants, s.warm, len(s.ops), cfg.clients, cfg.measure(), nil)
	after, err := s.srv.usage()
	if err != nil {
		return nil, err
	}
	if load.attempted == len(s.ops)-s.warm && !cfg.smoke {
		cfg.note(w.Name, "schedule_exhausted", "true: the run ended before -seconds; raise schedOps")
	}

	r := newResult(w.Name)
	r.countLoad(&load)
	if len(load.samples) == 0 {
		return nil, fmt.Errorf("%s: no operation completed: %s", w.Name, load.firstFailure)
	}
	rate, quiet := quietHalf(windowsOf(load.samples))
	all := load.latencies(nil)
	done := float64(len(all))
	r.put("ops_per_s", "1/s", value(rate))
	r.put("p50_ms", "ms", quiet.quantileIn(0.50, time.Millisecond))
	p95 := quiet.quantileIn(0.95, time.Millisecond)
	if !p95.ok {
		// On a slow host the quiet half of the heaviest workload falls
		// short of its ten samples beyond; the whole run has them.
		p95 = all.quantileIn(0.95, time.Millisecond)
	}
	r.put("p95_ms", "ms", p95)
	r.put("setup_s", "s", value(s.setup.Seconds()))
	r.put("index_bytes_per_char", "B/char", value(float64(s.builds[0].img)/float64(len(s.text))))
	r.put("peak_rss_mb", "MiB", value(after.peakRSSMiB))
	// Beyond the contract's end-to-end list: the failure ratio, the
	// same figures over the whole run, disturbed windows and all, and
	// the per-kind and far-tail client latencies.
	r.put("fail_ratio", "ratio", value(float64(load.failed())/float64(max(load.attempted, 1))))
	r.put("measured_s", "s", value(load.wall.Seconds()))
	r.put("whole.ops_per_s", "1/s", value(done/load.wall.Seconds()))
	r.put("whole.p50_ms", "ms", all.quantileIn(0.50, time.Millisecond))
	r.put("whole.p95_ms", "ms", all.quantileIn(0.95, time.Millisecond))
	r.put("whole.p99_ms", "ms", all.quantileIn(0.99, time.Millisecond))
	r.put("whole.p999_ms", "ms", all.quantileIn(0.999, time.Millisecond))
	r.put("serve.cpu_ms_per_kop", "ms", value(float64((after.cpu-before.cpu).Milliseconds())/done*1000))
	putKindLatencies(r, &load)
	cfg.dumpSamples(w.Name, load.samples)
	return r, nil
}

// putKindLatencies reports client latency per operation kind present.
func putKindLatencies(r *result, load *loadResult) {
	for k := opKind(0); k < numKinds; k++ {
		ls := load.latencies(func(s opSample) bool { return s.kind == k })
		if len(ls) == 0 {
			continue
		}
		r.put("serve."+k.String()+".p50_ms", "ms", ls.quantileIn(0.50, time.Millisecond))
		r.put("serve."+k.String()+".p99_ms", "ms", ls.quantileIn(0.99, time.Millisecond))
	}
}

// tracedServing is the traced run of a serving workload: a traced and
// an untraced pass over the first traceOps operations, the traced ones
// replayed in-process through the server's querier stack under spans,
// and then the layer probes.
func tracedServing(cfg *config, w *workload) (*result, error) {
	s, err := setupServing(cfg, w)
	if err != nil {
		return nil, err
	}
	defer func() { s.srv.stop() }()
	r := newResult(w.Name)
	n := cfg.scale(w.traceOps)

	// The traced pass comes first, so the in-process replay needs only the
	// warm-up to reach the server's cache state. The untraced pass then
	// covers the same operations — except under a result cache, where a
	// second pass over them would be all hits: there it takes the next n.
	from := s.warm
	before, err := s.srv.usage()
	if err != nil {
		return nil, err
	}
	rec := newSpanRecorder()
	traced := runLoad(s.srv.base, s.ops, s.wants, from, from+n, cfg.clients, 0, rec)
	after, err := s.srv.usage()
	if err != nil {
		return nil, err
	}
	plainFrom := from
	if w.cacheBytes > 0 {
		plainFrom += n
	}
	plain := runLoad(s.srv.base, s.ops, s.wants, plainFrom, plainFrom+n, cfg.clients, 0, nil)
	sm, err := s.srv.metrics()
	if err != nil {
		return nil, err
	}
	s.srv.stop()
	s.srv = nil
	r.countLoad(&plain)
	r.countLoad(&traced)
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return nil, fmt.Errorf("%s: traced replay completed no operation: %s", w.Name, r.firstFailure)
	}
	plainRate := float64(len(plain.samples)) / plain.wall.Seconds()
	tracedRate := float64(len(traced.samples)) / traced.wall.Seconds()
	r.put("trace.overhead_pct", "%", value((plainRate-tracedRate)/plainRate*100))

	selfs, wrong, firstWrong, err := s.replayInProcess(rec, &traced, from, n)
	if err != nil {
		return nil, err
	}
	r.countWrong(len(selfs), wrong, firstWrong)
	putShares(r, selfs)

	done := float64(len(traced.samples))
	r.put("serve.cpu_ms_per_kop", "ms", value(float64((after.cpu-before.cpu).Milliseconds())/done*1000))
	r.put("serve.bytes_out_per_op", "B", value(float64(traced.bytesOut)/done))
	r.put("serve.rejected_429", "count", value(float64(sm.rejected())))
	r.put("serve.errors_5xx", "count", value(float64(sm.errors5xx())))
	r.put("serve.obs_events_dropped", "count", value(float64(sm.Obs.Dropped)))
	lookups := float64(sm.Cache.Hits + sm.Cache.Misses)
	r.put("cached.hit_ratio", "ratio", value(ratio(float64(sm.Cache.Hits), lookups)))
	r.put("cached.negfilter_reject_ratio", "ratio", value(ratio(float64(sm.Cache.NegRejects), lookups+float64(sm.Cache.NegRejects))))
	r.put("cached.negfilter_falsepos", "count", value(float64(sm.Cache.NegFalsePos)))
	r.put("cached.evictions", "count", value(float64(sm.Cache.Evictions)))
	r.put("cached.entries", "count", value(float64(sm.Cache.Entries)))
	r.put("cached.bytes", "B", value(float64(sm.Cache.Bytes)))

	path, err := rec.write(cfg.outDir, w.Name)
	if err != nil {
		return nil, err
	}
	cfg.note(w.Name, "trace_file", path)
	cfg.note(w.Name, "trace_ops", fmt.Sprint(n))

	var chunks samples
	for _, b := range s.builds {
		chunks = append(chunks, b.chunks...)
	}
	if err := runProbes(cfg, r, s.text, s.orc, s.image, s.builds, chunks); err != nil {
		return nil, err
	}
	r.put("serve.wrong_answers", "count", value(float64(r.wrong)))
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes is one operation's request time split by layer; the four
// parts add up to request.
type selfTimes struct {
	request, serve, cached, descent, scan time.Duration
}

// replayInProcess repeats the traced pass's operations through the same
// querier stack the server runs — spine.Cached over the mapped image
// when the workload has a cache, the mapped image alone otherwise — and
// hangs cached, engine, descent and scan spans under each request span.
// A result cache is first brought to the server's state by replaying
// what the server had seen before the traced pass: the warm-up.
func (s *serving) replayInProcess(rec *spanRecorder, pass *loadResult, from, n int) (selfs []selfTimes, wrong int, firstWrong string, err error) {
	m, err := spine.OpenMapped(s.image, spine.MappedOptions{Warmup: true})
	if err != nil {
		return nil, 0, "", err
	}
	defer m.Close()
	sq := &spanQuerier{inner: m} // no recorder yet: the pre-roll leaves no spans
	var top spine.Querier = sq
	withCache := s.w.cacheBytes > 0
	ctx := context.Background()
	if withCache {
		c, err := spine.Cached(sq, spine.CacheConfig{MaxBytes: s.w.cacheBytes})
		if err != nil {
			return nil, 0, "", err
		}
		top = c
		for i := 0; i < from; i++ {
			if _, err := runOp(ctx, top, s.ops[i]); err != nil {
				return nil, 0, "", err
			}
		}
	}
	sq.rec = rec

	reqSpan := make(map[int]opSample, len(pass.samples))
	for _, sm := range pass.samples {
		reqSpan[sm.op] = sm
	}
	for i := from; i < from+n; i++ {
		sm, ok := reqSpan[i]
		if !ok {
			continue // failed over HTTP: already counted, nothing to explain
		}
		o := s.ops[i]
		sq.op, sq.last, sq.parent = i, 0, sm.span
		t0 := time.Now()
		cachedID := 0
		if withCache {
			cachedID = rec.reserve("cached", sm.span, i, t0)
			sq.parent = cachedID
		}
		results, err := runOp(ctx, top, o)
		t1 := time.Now()
		if err != nil {
			return nil, 0, "", fmt.Errorf("in-process %s: %w", o.path, err)
		}
		if withCache {
			rec.finish(cachedID, t1)
		}
		for j, res := range results {
			if err := verifyResult(o, j, s.wants[i][j], res); err != nil {
				wrong++
				if firstWrong == "" {
					firstWrong = err.Error()
				}
				break
			}
		}

		st := selfTimes{request: sm.latency}
		inproc := t1.Sub(t0)
		if sq.last != 0 {
			eng := rec.spans[sq.last-1]
			st.descent = eng.dur()
			if o.kind.scans() {
				// The paired KindFind call of the same patterns is the
				// descent; the rest of the engine span is the scan.
				f0 := time.Now()
				for _, p := range o.pats {
					if _, err := m.Query(ctx, p, spine.QueryOptions{Kind: spine.KindFind}); err != nil {
						return nil, 0, "", err
					}
				}
				st.descent = min(time.Since(f0), eng.dur())
				st.scan = eng.dur() - st.descent
			}
			mid := eng.Start + st.descent.Nanoseconds()
			rec.addNs("descent", eng.ID, i, eng.Start, mid)
			if o.kind.scans() {
				rec.addNs("scan", eng.ID, i, mid, eng.End)
			}
			if withCache {
				st.cached = inproc - eng.dur()
			} else {
				inproc = eng.dur()
			}
		} else {
			st.cached = inproc // a hit or a negative-filter reject: the engine was never reached
		}
		st.serve = st.request - inproc
		selfs = append(selfs, st)
	}
	return selfs, wrong, firstWrong, nil
}

// runOp issues one schedule operation against a querier in-process.
func runOp(ctx context.Context, q spine.Querier, o op) ([]spine.QueryResult, error) {
	if o.kind == opBatch {
		return q.QueryBatch(ctx, o.pats, spine.BatchOptions{Limit: o.limit})
	}
	res, err := q.Query(ctx, o.pats[0], queryOptions(o))
	return []spine.QueryResult{res}, err
}

// putShares reports where the traced requests' time went: each layer's
// self time summed over the operations, as a share of their summed
// request time. serve is the residual (request minus the in-process
// time of the same operation), so the four shares add up to 1.
func putShares(r *result, selfs []selfTimes) {
	var tot selfTimes
	nonneg := 0
	for _, st := range selfs {
		tot.request += st.request
		tot.serve += st.serve
		tot.cached += st.cached
		tot.descent += st.descent
		tot.scan += st.scan
		if st.serve >= 0 {
			nonneg++
		}
	}
	share := func(d time.Duration) reading { return value(ratio(float64(d), float64(tot.request))) }
	r.put("req.serve_share", "ratio", share(tot.serve))
	r.put("req.cached_share", "ratio", share(tot.cached))
	r.put("req.descent_share", "ratio", share(tot.descent))
	r.put("req.scan_share", "ratio", share(tot.scan))
	r.put("req.serve_nonneg_ratio", "ratio", reading{v: ratio(float64(nonneg), float64(len(selfs))), n: len(selfs), ok: true})
}

// endToEndIngest is the untraced run of the library workload.
func endToEndIngest(cfg *config, w *workload) (*result, error) {
	out, prep, err := runIngestChild(cfg, cfg.ingestRounds(), false)
	if err != nil {
		return nil, err
	}
	r := newResult(w.Name)
	chunks, wall := ingestSamples(out.Rounds, nil)
	if len(chunks) == 0 {
		return nil, errors.New("ingest: no measured round")
	}
	r.countWrong(len(chunks)+out.Queries, out.Wrong, out.FirstFailure)
	// A round is a window: the same work every time.
	ws := make([]window, len(out.Rounds))
	for i, ir := range out.Rounds {
		ws[i].wall = time.Duration(ir.WallNs)
		for _, c := range ir.ChunkNs {
			ws[i].lat = append(ws[i].lat, time.Duration(c))
		}
	}
	rate, quiet := quietHalf(ws)
	sorted := chunks.sorted()
	r.put("ops_per_s", "1/s", value(rate))
	r.put("p50_ms", "ms", quiet.quantileIn(0.50, time.Millisecond))
	r.put("p95_ms", "ms", quiet.quantileIn(0.95, time.Millisecond))
	r.put("setup_s", "s", value(prep.Seconds()+float64(out.WarmupNs)/1e9))
	r.put("index_bytes_per_char", "B/char", value(float64(out.ImageBytes)/float64(out.Chars)))
	r.put("peak_rss_mb", "MiB", value(out.PeakRSSMiB))
	r.put("fail_ratio", "ratio", value(float64(out.Wrong)/float64(len(chunks)+out.Queries)))
	r.put("measured_s", "s", value(wall.Seconds()))
	r.put("rounds", "count", value(float64(len(out.Rounds))))
	r.put("whole.ops_per_s", "1/s", value(float64(len(chunks))/wall.Seconds()))
	r.put("whole.p50_ms", "ms", sorted.quantileIn(0.50, time.Millisecond))
	r.put("whole.p95_ms", "ms", sorted.quantileIn(0.95, time.Millisecond))
	r.put("whole.p99_ms", "ms", sorted.quantileIn(0.99, time.Millisecond))
	r.put("serve.cpu_ms_per_kop", "ms", value(float64(out.CPUNs)/1e6/float64(len(chunks))*1000))
	raw := make([]opSample, len(chunks))
	for i, c := range chunks {
		raw[i] = opSample{op: i, kind: opAppend, latency: c}
	}
	cfg.dumpSamples(w.Name, raw)
	return r, nil
}

// ingestSamples gathers the chunk latencies and the wall time of the
// rounds keep accepts (all when nil).
func ingestSamples(rounds []ingestRound, keep func(ingestRound) bool) (chunks samples, wall time.Duration) {
	for _, ir := range rounds {
		if keep != nil && !keep(ir) {
			continue
		}
		wall += time.Duration(ir.WallNs)
		for _, c := range ir.ChunkNs {
			chunks = append(chunks, time.Duration(c))
		}
	}
	return chunks, wall
}

// tracedIngest runs a fixed number of rounds, every other one with its
// steps timed; the timed rounds become round spans with append, freeze,
// save, open and verify_queries children.
func tracedIngest(cfg *config, w *workload) (*result, error) {
	const rounds = 4
	out, _, err := runIngestChild(cfg, rounds, true)
	if err != nil {
		return nil, err
	}
	r := newResult(w.Name)
	isTraced := func(ir ingestRound) bool { return ir.Traced }
	tc, tw := ingestSamples(out.Rounds, isTraced)
	pc, pw := ingestSamples(out.Rounds, func(ir ingestRound) bool { return !ir.Traced })
	if len(tc) == 0 || len(pc) == 0 {
		return nil, errors.New("ingest: traced run needs a timed and an untimed round")
	}
	r.countWrong(len(tc)+len(pc)+out.Queries, out.Wrong, out.FirstFailure)
	plainRate, tracedRate := float64(len(pc))/pw.Seconds(), float64(len(tc))/tw.Seconds()
	r.put("trace.overhead_pct", "%", value((plainRate-tracedRate)/plainRate*100))

	rec := newSpanRecorder()
	var builds []buildTimings
	for i, ir := range out.Rounds {
		if !ir.Traced {
			continue
		}
		at := func(ns int64) time.Time { return rec.t0.Add(time.Duration(ns)) }
		id := rec.add("round", 0, i, at(ir.StartNs), at(ir.StartNs+ir.WallNs))
		t := ir.StartNs
		for _, step := range []struct {
			name string
			ns   int64
		}{{"append", ir.AppendNs}, {"freeze", ir.FreezeNs}, {"save", ir.SaveNs}, {"open", ir.OpenNs}, {"verify_queries", ir.VerifyNs}} {
			rec.add(step.name, id, i, at(t), at(t+step.ns))
			t += step.ns
		}
		builds = append(builds, buildTimings{
			appendT: time.Duration(ir.AppendNs), freeze: time.Duration(ir.FreezeNs), save: time.Duration(ir.SaveNs),
			chars: out.Chars, refBytes: out.RefBytes, compactBytes: out.CompactBytes, img: out.ImageBytes,
		})
	}
	path, err := rec.write(cfg.outDir, w.Name)
	if err != nil {
		return nil, err
	}
	cfg.note(w.Name, "trace_file", path)

	// No server and no requests here: the request shares and the server
	// counters read 0, and the cpu figure is the child's.
	putShares(r, nil)
	r.put("serve.cpu_ms_per_kop", "ms", value(float64(out.CPUNs)/1e6/float64(len(tc)+len(pc))*1000))
	for _, name := range []string{"serve.rejected_429", "serve.errors_5xx", "serve.obs_events_dropped",
		"cached.negfilter_falsepos", "cached.evictions", "cached.entries"} {
		r.put(name, "count", value(0))
	}
	r.put("serve.bytes_out_per_op", "B", value(0))
	r.put("cached.bytes", "B", value(0))
	r.put("cached.hit_ratio", "ratio", value(0))
	r.put("cached.negfilter_reject_ratio", "ratio", value(0))

	// The probes need the corpus and an image; the child's last one is
	// still in the run directory.
	text, err := genCorpus(cfg.seed, cfg.chars())
	if err != nil {
		return nil, err
	}
	if err := runProbes(cfg, r, text, newOracle(text), filepath.Join(cfg.runDir, "ingest.img"), builds, append(tc, pc...)); err != nil {
		return nil, err
	}
	r.put("serve.wrong_answers", "count", value(float64(r.wrong)))
	return r, nil
}
