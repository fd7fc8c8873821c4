package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

type opKind uint8

const (
	opContains opKind = iota
	opFind
	opFindAll
	opCount
	opBatch
	opAppend // ingest: one chunk appended; never sent to a server
	numKinds
)

var kindNames = [numKinds]string{"contains", "find", "findall", "count", "batch", "append"}

func (k opKind) String() string { return kindNames[k] }

// scans reports whether the kind pays the backbone occurrence scan.
func (k opKind) scans() bool { return k == opFindAll || k == opCount || k == opBatch }

// op is one request of a schedule: a single-pattern query, or a batch
// (several patterns, one POST). The program under test sees only
// path, body and the corpus.
type op struct {
	kind  opKind
	limit int // findall and batch only
	pats  [][]byte
	path  string // request path and query
	body  []byte // batch POST body
	wire  []byte // the whole HTTP/1.1 request as it goes to the socket
}

func newOp(kind opKind, limit int, pats ...[]byte) op {
	o := op{kind: kind, limit: limit, pats: pats}
	if kind == opBatch {
		strs := make([]string, len(pats))
		for i, p := range pats {
			strs[i] = string(p)
		}
		o.path = "/v1/batch"
		o.body, _ = json.Marshal(map[string]any{"patterns": strs, "limit": limit}) // strings and an int cannot fail
		o.wire = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: spineserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", o.path, len(o.body), o.body)
		return o
	}
	o.path = "/v1/" + kind.String() + "?q=" + string(pats[0]) // patterns are DNA letters: nothing to escape
	if kind == opFindAll {
		o.path += "&limit=" + strconv.Itoa(limit)
	}
	o.wire = fmt.Appendf(nil, "GET %s HTTP/1.1\r\nHost: spineserve\r\n\r\n", o.path)
	return o
}

// generator draws a workload's operations from the corpus. Its stream
// is a pure function of the run seed and the workload name.
type generator struct {
	rng  *rand.Rand
	text []byte
	seen map[string]struct{} // patterns handed out, where distinct is promised
}

func newGenerator(seed int64, name string, text []byte) *generator {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &generator{
		rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		text: text,
		seen: make(map[string]struct{}),
	}
}

// substring samples a length-n substring of the text.
func (g *generator) substring(n int) []byte {
	off := g.rng.Intn(len(g.text) - n + 1)
	return g.text[off : off+n : off+n]
}

// distinct samples substrings until one has not been handed out yet.
// Short lengths have few distinct values, so after a bounded number of
// tries the next length of the ladder is used instead of spinning.
func (g *generator) distinct(n int, mutate bool) []byte {
	if mutate {
		return g.distinctFrom(n, func(n int) []byte { return g.mutated(g.substring(n)) })
	}
	return g.distinctFrom(n, g.substring)
}

// distinctFrom is distinct with the sampler given.
func (g *generator) distinctFrom(n int, sample func(n int) []byte) []byte {
	for tries := 0; ; tries++ {
		if tries > 0 && tries%64 == 0 {
			n += 4
		}
		p := sample(n)
		if _, dup := g.seen[string(p)]; !dup {
			g.seen[string(p)] = struct{}{}
			return p
		}
	}
}

const letters = "acgt"

// mutated returns p with one position substituted: absent from the text
// for all but the shortest lengths. The oracle decides; the label is
// only how the pattern was made.
func (g *generator) mutated(p []byte) []byte {
	q := append([]byte(nil), p...)
	i := g.rng.Intn(len(q))
	for {
		if c := letters[g.rng.Intn(4)]; c != q[i] {
			q[i] = c
			return q
		}
	}
}

func (g *generator) random(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = letters[g.rng.Intn(4)]
	}
	return p
}

func (g *generator) ladderLen() int { return patternLens[g.rng.Intn(len(patternLens))] }

// Every schedule is made of blocks: a block holds each combination of
// the workload's properties (pattern length, kind, present or absent) in
// its stated proportion exactly, in shuffled order. The mix any stretch
// of a run has seen is then the same for every seed and every stopping
// point, so run-to-run differences are the program's and the host's,
// not the luck of the draw.

// shuffled returns 0..n-1 in random order.
func (g *generator) shuffled(n int) []int { return g.rng.Perm(n) }

// lookupMutateEvery: one lookup pattern in this many is point-mutated.
const lookupMutateEvery = 5

// genLookup: contains and find 1:1, 80% substrings of the text, 20%
// point-mutated, every pattern distinct. A block is every (length,
// kind) pair five times, one of the five mutated.
func genLookup(g *generator, n int) []op {
	block := len(patternLens) * 2 * lookupMutateEvery
	ops := make([]op, 0, n+block)
	for len(ops) < n {
		for _, c := range g.shuffled(block) {
			kind := opContains
			if c%2 == 1 {
				kind = opFind
			}
			c /= 2
			ops = append(ops, newOp(kind, 0, g.distinct(patternLens[c%len(patternLens)], c/len(patternLens) == 0)))
		}
	}
	return ops[:n]
}

const scanLimit = 1000

// spreadOffset picks where to cut a length-n substring within the i-th
// of k equal stretches of the text.
func (g *generator) spreadOffset(n, i, k int) int {
	stretch := (len(g.text) - n + 1) / k
	return i*stretch + g.rng.Intn(stretch)
}

// genScan: count and findall 1:1 over distinct present patterns. A
// block is every (length, kind) pair once, and its patterns are cut one
// from each of as many equal stretches of the text, in shuffled order:
// a scan runs from a pattern's first occurrence to the end of the
// backbone, so where the patterns come from decides what a block costs.
func genScan(g *generator, n int) []op {
	block := len(patternLens) * 2
	ops := make([]op, 0, n+block)
	for len(ops) < n {
		from := g.shuffled(block)
		for j, c := range g.shuffled(block) {
			p := g.distinctFrom(patternLens[c/2], func(n int) []byte {
				off := g.spreadOffset(n, from[j], block)
				return g.text[off : off+n : off+n]
			})
			if c%2 == 1 {
				ops = append(ops, newOp(opFindAll, scanLimit, p))
			} else {
				ops = append(ops, newOp(opCount, 0, p))
			}
		}
	}
	return ops[:n]
}

const (
	batchSize  = 16
	batchLimit = 100
)

// genBatch: one operation is one POST of batchSize distinct present
// patterns, |P| uniform in 16..32.
func genBatch(g *generator, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		pats := make([][]byte, batchSize)
		for j := range pats {
			pats[j] = g.distinct(16+g.rng.Intn(17), false)
		}
		ops[i] = newOp(opBatch, batchLimit, pats...)
	}
	return ops
}

const zipfLimit = 100

// zipfBlock is the kinds of ten consecutive zipf operations: contains
// 5 : find 2 : findall 2 : count 1.
var zipfBlock = [10]opKind{opContains, opContains, opContains, opContains, opContains, opFind, opFind, opFindAll, opFindAll, opCount}

// genZipf: 80% of operations draw a present 12-mer by Zipf rank from a
// fixed key space, 20% are random 20-mers (absent, and long enough for
// the negative filter); kinds mix contains 5 : find 2 : findall 2 :
// count 1. A block is twenty operations: each kind twice its share of
// ten, four of the twenty absent, the two shuffled independently.
func genZipf(g *generator, n int) []op {
	keys := make([][]byte, zipfKeys)
	if max := len(g.text) / 4; len(keys) > max {
		keys = keys[:max] // the smoke corpus cannot supply the full key space
	}
	for i := range keys {
		keys[i] = g.distinct(zipfKeyLen, false)
	}
	z := rand.NewZipf(g.rng, zipfS, 1, uint64(len(keys)-1))
	const block = 2 * len(zipfBlock)
	ops := make([]op, 0, n+block)
	for len(ops) < n {
		absent := g.shuffled(block)
		for i, c := range g.shuffled(block) {
			var p []byte
			if absent[i] < block/5 {
				p = g.random(zipfAbsLen)
			} else {
				p = keys[z.Uint64()]
			}
			kind := zipfBlock[c%len(zipfBlock)]
			limit := 0
			if kind == opFindAll {
				limit = zipfLimit
			}
			ops = append(ops, newOp(kind, limit, p))
		}
	}
	return ops[:n]
}

// genIngestQueries: the queries an ingest round checks its fresh image
// with — every kind, present and mutated patterns.
func genIngestQueries(g *generator, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		p := g.substring(12 + g.rng.Intn(21))
		if g.rng.Intn(4) == 0 {
			p = g.mutated(p)
		}
		kind := opKind(g.rng.Intn(4))
		limit := 0
		if kind == opFindAll {
			limit = zipfLimit
		}
		ops[i] = newOp(kind, limit, p)
	}
	return ops
}

// scheduleHash identifies a schedule: same seed, same hash.
func scheduleHash(ops []op) string {
	h := sha256.New()
	var n [8]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint32(n[:4], uint32(o.kind))
		binary.LittleEndian.PutUint32(n[4:], uint32(o.limit))
		h.Write(n[:])
		h.Write(bytes.Join(o.pats, []byte{0}))
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
