package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/core"
)

// The layer probes: every traced run times each layer from outside,
// through its public functions, on the run's corpus and image. They are
// the same for every workload — a traced run of any workload shows every
// layer — and every answer they get is checked against the oracle.
// Sample counts are fixed so that each reported percentile has its ten
// samples beyond, and the whole set stays near fifteen seconds.

const (
	probeShort     = 24  // dense-regime scan patterns, |P| 8 and 12
	probeLong      = 120 // block-skip-regime scan patterns, |P| 16..64
	probeArmShort  = 10
	probeArmLong   = 30
	probeFinds     = 20_000
	probeAbsent    = 5_000
	probeBatches   = 16
	probeCacheOps  = 1_000
	probeFitOps    = 20_000
	probeServeFind = 1_500 // per lookup kind, so p99 has fifteen beyond
	probeServeScan = 80    // per scan kind
	probeServeBat  = 30
	matchQueryLen  = 50_000
	shardSize      = 1 << 20
	shardMaxPat    = 256
)

// prober carries what the probes share.
type prober struct {
	cfg   *config
	r     *result
	text  []byte
	orc   *oracle
	image string
	m     *spine.MappedCompact
	g     *generator
	ctx   context.Context
}

func runProbes(cfg *config, r *result, text []byte, orc *oracle, image string, builds []buildTimings, chunks samples) error {
	m, err := spine.OpenMapped(image, spine.MappedOptions{Warmup: true})
	if err != nil {
		return err
	}
	defer m.Close()
	p := &prober{cfg: cfg, r: r, text: text, orc: orc, image: image, m: m,
		g: newGenerator(cfg.seed, "probes", text), ctx: context.Background()}
	putBuild(r, builds, chunks)
	for _, probe := range []func() error{
		p.descent, p.scan, p.batch, p.cached, p.mapped, p.sharded, p.match, p.serve,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// query runs one in-process query, checks it against the oracle and
// returns the result with its wall time.
func (p *prober) query(q spine.Querier, kind opKind, pat []byte, limit int) (spine.QueryResult, time.Duration, error) {
	o := op{kind: kind, limit: limit, pats: [][]byte{pat}}
	t0 := time.Now()
	res, err := q.Query(p.ctx, pat, queryOptions(o))
	d := time.Since(t0)
	if err != nil {
		return res, d, fmt.Errorf("probe %s %q: %w", kind, pat, err)
	}
	p.check(verifyResult(o, 0, p.orc.answer(pat, limit, kind == opFindAll), res))
	return res, d, nil
}

func (p *prober) check(err error) {
	wrong := 0
	msg := ""
	if err != nil {
		wrong, msg = 1, err.Error()
	}
	p.r.countWrong(1, wrong, msg)
}

func (p *prober) patterns(n int, lens ...int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = p.g.distinct(lens[i%len(lens)], false)
	}
	return out
}

func medianOf(ds samples, unit time.Duration) reading {
	return ds.sorted().quantileIn(0.5, unit)
}

// descent: the valid-path search alone (KindFind), present and absent.
func (p *prober) descent() error {
	var present, absent samples
	var nodes int64
	for i := 0; i < probeFinds; i++ {
		res, d, err := p.query(p.m, opFind, p.g.distinct(p.g.ladderLen(), false), 0)
		if err != nil {
			return err
		}
		present = append(present, d)
		nodes += res.NodesChecked
	}
	for len(absent) < probeAbsent {
		pat := p.g.mutated(p.g.substring(16 + p.g.rng.Intn(49)))
		res, d, err := p.query(p.m, opFind, pat, 0)
		if err != nil {
			return err
		}
		if !res.Found {
			absent = append(absent, d)
		}
	}
	s := present.sorted()
	p.r.put("core.descent.us.p50", "us", s.quantileIn(0.50, time.Microsecond))
	p.r.put("core.descent.us.p99", "us", s.quantileIn(0.99, time.Microsecond))
	p.r.put("core.descent.absent_us.p50", "us", medianOf(absent, time.Microsecond))
	p.r.put("core.descent.nodes_per_query", "count", value(float64(nodes)/probeFinds))
	return nil
}

// scanSelf times the occurrence scan of pat alone: the scanning kind's
// time minus the KindFind time of the same pattern.
func (p *prober) scanSelf(q spine.Querier, kind opKind, pat []byte, limit int) (spine.QueryResult, time.Duration, error) {
	_, find, err := p.query(q, opFind, pat, 0)
	if err != nil {
		return spine.QueryResult{}, 0, err
	}
	res, d, err := p.query(q, kind, pat, limit)
	return res, max(d-find, 0), err
}

// scan: the backbone occurrence scan in its two regimes, then the same
// patterns under each fast-path arm.
func (p *prober) scan() error {
	short := p.patterns(probeShort, 8, 12)
	long := p.patterns(probeLong, 16, 24, 32, 48, 64)
	var shortT, longT, limitT samples
	var scanNs, nodes, results int64
	for i, pat := range append(append([][]byte{}, short...), long...) {
		kind := opCount
		if i%2 == 1 {
			kind = opFindAll // unlimited: every occurrence, so NodesChecked covers the backbone
		}
		res, d, err := p.scanSelf(p.m, kind, pat, 0)
		if err != nil {
			return err
		}
		if i < len(short) {
			shortT = append(shortT, d)
		} else {
			longT = append(longT, d)
		}
		if kind == opFindAll { // KindCount reports NodesChecked 0
			scanNs += d.Nanoseconds()
			nodes += res.NodesChecked
			results += int64(len(res.Positions))
		}
	}
	for _, pat := range short {
		_, d, err := p.scanSelf(p.m, opFindAll, pat, 10)
		if err != nil {
			return err
		}
		limitT = append(limitT, d)
	}
	ls := longT.sorted()
	p.r.put("core.scan.short_ms.p50", "ms", medianOf(shortT, time.Millisecond))
	p.r.put("core.scan.long_ms.p50", "ms", ls.quantileIn(0.50, time.Millisecond))
	p.r.put("core.scan.long_ms.p90", "ms", ls.quantileIn(0.90, time.Millisecond))
	p.r.put("core.scan.ns_per_node", "ns", value(ratio(float64(scanNs), float64(nodes))))
	p.r.put("core.scan.nodes_per_result", "count", value(ratio(float64(nodes), float64(results))))
	p.r.put("core.scan.limit10_ms.p50", "ms", medianOf(limitT, time.Millisecond))

	// The arms flip the process-wide scan knobs — the only way the
	// library offers today — and restore them. default is what ships:
	// SWAR kernel, block-skip, adaptive parallelism (one worker per core,
	// so on one core it is the sequential scan and says nothing about
	// parallelism).
	arms := []struct {
		name     string
		parallel int
		kernel   core.ScanKernel
		skip     bool
	}{
		{"default", 0, core.KernelSWAR, true},
		{"swar_seq", 1, core.KernelSWAR, true},
		{"scalar_seq", 1, core.KernelScalar, true},
		{"noskip_seq", 1, core.KernelSWAR, false},
	}
	prevPar, prevKernel, prevSkip := core.ScanParallelism(), core.ActiveScanKernel(), core.BlockSkipEnabled()
	defer func() {
		core.SetScanParallelism(prevPar)
		core.SetScanKernel(prevKernel)
		core.SetBlockSkip(prevSkip)
	}()
	for _, arm := range arms {
		core.SetScanParallelism(arm.parallel)
		core.SetScanKernel(arm.kernel)
		core.SetBlockSkip(arm.skip)
		for _, set := range []struct {
			name string
			pats [][]byte
		}{{"short", short[:probeArmShort]}, {"long", long[:probeArmLong]}} {
			var ts samples
			for _, pat := range set.pats {
				_, d, err := p.scanSelf(p.m, opCount, pat, 0)
				if err != nil {
					return err
				}
				ts = append(ts, d)
			}
			p.r.put("core.scan.arm."+arm.name+"."+set.name+"_ms", "ms", medianOf(ts, time.Millisecond))
		}
	}
	if runtime.NumCPU() == 1 {
		p.cfg.note(p.r.workload, "scan_arms", "1 core: the default arm ran sequentially; no parallel figure")
	}
	return nil
}

// batch: the set-basis single backbone pass against the same patterns
// queried one by one.
func (p *prober) batch() error {
	var batchT samples
	var batchNs, seqNs, nodes int64
	for b := 0; b < probeBatches; b++ {
		o := genBatch(p.g, 1)[0]
		t0 := time.Now()
		results, err := p.m.QueryBatch(p.ctx, o.pats, spine.BatchOptions{Limit: o.limit})
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("probe batch: %w", err)
		}
		batchT = append(batchT, d)
		batchNs += d.Nanoseconds()
		for j, res := range results {
			p.check(verifyResult(o, j, p.orc.answer(o.pats[j], o.limit, true), res))
			nodes += res.NodesChecked
			_, sd, err := p.query(p.m, opFindAll, o.pats[j], o.limit)
			if err != nil {
				return err
			}
			seqNs += sd.Nanoseconds()
		}
	}
	p.r.put("core.batch.ms.p50", "ms", medianOf(batchT, time.Millisecond))
	// Base: the summed time of the batch's patterns as single findall
	// queries with the same limit, one after another.
	p.r.put("core.batch.amortization", "ratio", value(ratio(float64(seqNs), float64(batchNs))))
	p.r.put("core.batch.nodes_per_pattern", "count", value(float64(nodes)/(probeBatches*batchSize)))
	return nil
}

// cached: the result cache and negative filter through spine.Cached
// with the zipf workload's budget, and the fits-in-cache counterpart.
func (p *prober) cached() error {
	var builds samples
	var c *spine.CachedQuerier
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		// Constructing the decorator is building the filter over the text.
		if c, err = spine.Cached(p.m, spine.CacheConfig{MaxBytes: findWorkload("zipf").cacheBytes}); err != nil {
			return err
		}
		builds = append(builds, time.Since(t0))
	}
	p.r.put("cached.negfilter_build_ms", "ms", medianOf(builds, time.Millisecond))

	var hits, rejects, overhead samples
	pats := p.patterns(probeCacheOps, 16, 24, 32)
	for i, pat := range pats {
		// A first sight through the cache is a miss; set against the bare
		// engine on the same pattern, alternating which goes first so
		// neither always has the warm lines.
		var bare, miss time.Duration
		var err error
		if i%2 == 0 {
			_, bare, err = p.query(p.m, opContains, pat, 0)
		}
		if err == nil {
			_, miss, err = p.query(c, opContains, pat, 0)
		}
		if err == nil && i%2 == 1 {
			_, bare, err = p.query(p.m, opContains, pat, 0)
		}
		if err != nil {
			return err
		}
		overhead = append(overhead, miss-bare)
	}
	// A second sight is a hit for the patterns still resident: the most
	// recent quarter fits the budget with room in every shard.
	for _, pat := range pats[len(pats)*3/4:] {
		res, d, err := p.query(c, opContains, pat, 0)
		if err != nil {
			return err
		}
		if res.Source == spine.SourceCache {
			hits = append(hits, d)
		}
	}
	for i := 0; i < probeCacheOps; i++ {
		res, d, err := p.query(c, opContains, p.g.random(zipfAbsLen), 0)
		if err != nil {
			return err
		}
		if res.Source == spine.SourceNegFilter {
			rejects = append(rejects, d)
		}
	}
	p.r.put("cached.hit_us.p50", "us", medianOf(hits, time.Microsecond))
	p.r.put("cached.reject_us.p50", "us", medianOf(rejects, time.Microsecond))
	p.r.put("cached.miss_overhead_us.p50", "us", medianOf(overhead, time.Microsecond))

	// The same skew over a cache the key space fits in (the default 64
	// MiB), descent-only kinds so that first sights stay cheap.
	fit, err := spine.Cached(p.m, spine.CacheConfig{})
	if err != nil {
		return err
	}
	keys := p.patterns(min(zipfKeys, len(p.text)/4), zipfKeyLen)
	z := rand.NewZipf(p.g.rng, zipfS, 1, uint64(len(keys)-1))
	var fitHits samples
	for i := 0; i < probeFitOps; i++ {
		res, d, err := p.query(fit, opContains, keys[z.Uint64()], 0)
		if err != nil {
			return err
		}
		if res.Source == spine.SourceCache {
			fitHits = append(fitHits, d)
		}
	}
	p.r.put("cached.fit.hit_ratio", "ratio", value(float64(len(fitHits))/probeFitOps))
	p.r.put("cached.fit.hit_us.p50", "us", medianOf(fitHits, time.Microsecond))
	return nil
}

// mapped: what opening and serving from the image costs, against the
// heap-loaded copy. The OS page cache is warm throughout, so these are
// the sandbox's figures, not a device's.
func (p *prober) mapped() error {
	open := func(n int, opts spine.MappedOptions) (samples, error) {
		var ts samples
		for i := 0; i < n; i++ {
			t0 := time.Now()
			m, err := spine.OpenMapped(p.image, opts)
			if err != nil {
				return nil, err
			}
			ts = append(ts, time.Since(t0))
			if err := m.Close(); err != nil {
				return nil, err
			}
		}
		return ts, nil
	}
	lazy, err := open(21, spine.MappedOptions{})
	if err != nil {
		return err
	}
	verified, err := open(5, spine.MappedOptions{Verify: true})
	if err != nil {
		return err
	}
	var loads samples
	var heap *spine.Compact
	for i := 0; i < 3; i++ {
		f, err := os.Open(p.image)
		if err != nil {
			return err
		}
		t0 := time.Now()
		heap, err = spine.LoadCompact(bufio.NewReaderSize(f, 1<<20))
		loads = append(loads, time.Since(t0))
		f.Close()
		if err != nil {
			return err
		}
	}
	p.r.put("mapped.open_us.p50", "us", medianOf(lazy, time.Microsecond))
	p.r.put("mapped.open_verify_ms.p50", "ms", medianOf(verified, time.Millisecond))
	p.r.put("mapped.heap_load_ms.p50", "ms", medianOf(loads, time.Millisecond))

	fresh, err := spine.OpenMapped(p.image, spine.MappedOptions{})
	if err != nil {
		return err
	}
	defer fresh.Close()
	_, first, err := p.query(fresh, opCount, p.g.distinct(12, false), 0)
	if err != nil {
		return err
	}
	p.r.put("mapped.first_query_ms", "ms", value(float64(first)/float64(time.Millisecond)))

	var mappedNs, heapNs int64
	for i, pat := range p.patterns(24, 12, 16, 32) {
		// Alternate which layout scans first, as in the cache probe.
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				_, d, err := p.query(fresh, opCount, pat, 0)
				if err != nil {
					return err
				}
				mappedNs += d.Nanoseconds()
			} else {
				_, d, err := p.query(heap, opCount, pat, 0)
				if err != nil {
					return err
				}
				heapNs += d.Nanoseconds()
			}
		}
	}
	p.r.put("mapped.vs_heap_scan_ratio", "ratio", value(ratio(float64(mappedNs), float64(heapNs))))

	// Readahead and residency of the handle the scan and batch probes
	// used.
	st := p.m.DiskStats()
	p.r.put("mapped.readahead_issued", "count", value(float64(st.ReadaheadIssued)))
	p.r.put("mapped.readahead_hits", "count", value(float64(st.ReadaheadHits)))
	p.r.put("mapped.readahead_hit_ratio", "ratio", value(ratio(float64(st.ReadaheadHits), float64(st.ReadaheadHits+st.ReadaheadIssued))))
	p.r.put("mapped.resident_mb", "MiB", value(float64(st.ResidentBytes)/(1<<20)))
	return nil
}

// putBuild reports the write path from the builds the run already did:
// a serving run's set-up cycles, or an ingest run's timed rounds. chunks
// are the append latencies of every build, timed or not.
func putBuild(r *result, builds []buildTimings, chunks samples) {
	var appendS, freeze, save []float64
	for _, b := range builds {
		appendS = append(appendS, float64(b.chars)/1e6/b.appendT.Seconds())
		freeze = append(freeze, float64(b.freeze)/float64(time.Millisecond))
		save = append(save, float64(b.save)/float64(time.Millisecond))
	}
	b := builds[len(builds)-1]
	r.put("core.build.append_mchars_per_s", "Mchar/s", reading{v: median(appendS), n: len(builds), ok: true})
	r.put("core.build.chunk_ms.p99", "ms", chunks.sorted().quantileIn(0.99, time.Millisecond))
	r.put("core.build.freeze_ms", "ms", reading{v: median(freeze), n: len(builds), ok: true})
	r.put("core.build.save_ms", "ms", reading{v: median(save), n: len(builds), ok: true})
	r.put("core.build.ref_bytes_per_char", "B/char", value(float64(b.refBytes)/float64(b.chars)))
	r.put("core.build.compact_bytes_per_char", "B/char", value(float64(b.compactBytes)/float64(b.chars)))
}

// sharded: the parked shard tier, layer-only, against the single index
// on the same patterns.
func (p *prober) sharded() error {
	size := min(shardSize, len(p.text))
	t0 := time.Now()
	sh, err := spine.BuildSharded(p.text, size, min(shardMaxPat, size), 0)
	if err != nil {
		return err
	}
	p.r.put("sharded.build_s", "s", value(time.Since(t0).Seconds()))
	var finds, findalls, counts samples
	for i := 0; i < 2_000; i++ {
		_, d, err := p.query(sh, opFind, p.g.distinct(p.g.ladderLen(), false), 0)
		if err != nil {
			return err
		}
		finds = append(finds, d)
	}
	var shardNs, singleNs int64
	for _, pat := range p.patterns(21, 12, 16, 32) {
		_, fa, err := p.query(sh, opFindAll, pat, scanLimit)
		if err != nil {
			return err
		}
		_, ct, err := p.query(sh, opCount, pat, 0)
		if err != nil {
			return err
		}
		_, single, err := p.query(p.m, opCount, pat, 0)
		if err != nil {
			return err
		}
		findalls, counts = append(findalls, fa), append(counts, ct)
		shardNs += ct.Nanoseconds()
		singleNs += single.Nanoseconds()
	}
	p.r.put("sharded.find_us.p50", "us", medianOf(finds, time.Microsecond))
	p.r.put("sharded.findall_ms.p50", "ms", medianOf(findalls, time.Millisecond))
	p.r.put("sharded.count_ms.p50", "ms", medianOf(counts, time.Millisecond))
	p.r.put("sharded.vs_single_ratio", "ratio", value(ratio(float64(shardNs), float64(singleNs))))
	return nil
}

// match: maximal matching (the paper's Table 6) of a 2%-mutated slice
// of the corpus against the index.
func (p *prober) match() error {
	n := min(matchQueryLen, len(p.text)/2)
	query := append([]byte(nil), p.g.substring(n)...)
	for i := 0; i < n/50; i++ {
		query[p.g.rng.Intn(n)] = letters[p.g.rng.Intn(4)]
	}
	matches, info, err := p.m.MaximalMatches(query, 20)
	if err != nil {
		return err
	}
	// The oracle check a match list allows cheaply: every reported match
	// is a substring of the corpus at every position it names.
	for _, mt := range matches {
		offs := p.orc.sa.Lookup(query[mt.QueryStart:mt.QueryStart+mt.Len], -1)
		sort.Ints(offs)
		var err error
		for _, at := range mt.DataStarts {
			if i := sort.SearchInts(offs, at); i == len(offs) || offs[i] != at {
				err = fmt.Errorf("match at query %d len %d: corpus offset %d is not an occurrence", mt.QueryStart, mt.Len, at)
				break
			}
		}
		p.check(err)
	}
	p.r.put("match.maximal_ms_per_kchar", "ms", value(float64(info.Elapsed)/float64(time.Millisecond)/(float64(n)/1000)))
	p.r.put("match.nodes_per_char", "count", value(float64(info.NodesChecked)/float64(n)))
	return nil
}

// serve: a spineserve with the cache off and otherwise default flags,
// driven one kind at a time; for the descent-only kinds the same
// request is then made in-process, and what is left of the client's
// latency is the serve layer's own time.
func (p *prober) serve() error {
	srv, err := startServer(p.cfg.serverBin, p.image, p.cfg.runDir, []string{"-cache-bytes", "0"})
	if err != nil {
		return err
	}
	defer srv.stop()
	nFind, nScan, nBat := p.cfg.scale(probeServeFind), p.cfg.scale(probeServeScan), p.cfg.scale(probeServeBat)
	var ops []op
	for _, kind := range []opKind{opContains, opFind} {
		for i := 0; i < nFind; i++ {
			ops = append(ops, newOp(kind, 0, p.g.distinct(p.g.ladderLen(), i%5 == 0)))
		}
	}
	for _, kind := range []opKind{opFindAll, opCount} {
		for i := 0; i < nScan; i++ {
			limit := 0
			if kind == opFindAll {
				limit = scanLimit
			}
			ops = append(ops, newOp(kind, limit, p.g.distinct(p.g.ladderLen(), false)))
		}
	}
	ops = append(ops, genBatch(p.g, nBat)...)
	wants := p.orc.expect(ops)

	var self samples
	from := 0
	for k, n := range []int{nFind, nFind, nScan, nScan, nBat} {
		kind := opKind(k)
		load := runLoad(srv.base, ops, wants, from, from+n, p.cfg.clients, 0, nil)
		from += n
		p.r.countLoad(&load)
		ls := load.latencies(nil)
		p.r.put("serve."+kind.String()+".p50_ms", "ms", ls.quantileIn(0.50, time.Millisecond))
		if kind.scans() {
			continue
		}
		p.r.put("serve."+kind.String()+".p99_ms", "ms", ls.quantileIn(0.99, time.Millisecond))
		for _, s := range load.samples {
			_, d, err := p.query(p.m, kind, ops[s.op].pats[0], 0)
			if err != nil {
				return err
			}
			self = append(self, s.latency-d)
		}
	}
	s := self.sorted()
	p.r.put("serve.self_us.p50", "us", s.quantileIn(0.50, time.Microsecond))
	p.r.put("serve.self_us.p99", "us", s.quantileIn(0.99, time.Microsecond))
	return nil
}
