package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one completed operation as the client saw it.
type opSample struct {
	op      int // schedule index
	kind    opKind
	latency time.Duration
	end     time.Duration // when the reply was read, since the pass began
	span    int           // id of its request span in a traced pass
}

// loadResult is one pass of the closed loop over a schedule range.
type loadResult struct {
	samples   []opSample
	wall      time.Duration
	attempted int
	// Failures by cause; failed() is their sum. firstFailure names the
	// first offending operation.
	transport, rejected429, errors5xx, otherStatus, wrong int
	firstFailure                                          string
	bytesOut                                              int64
}

func (r *loadResult) failed() int {
	return r.transport + r.rejected429 + r.errors5xx + r.otherStatus + r.wrong
}

func (r *loadResult) fail(counter *int, i int, o *op, why string) {
	*counter++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf("op %d %s: %s", i, o.path, why)
	}
}

func (r *loadResult) latencies(keep func(opSample) bool) samples {
	var out samples
	for _, s := range r.samples {
		if keep == nil || keep(s) {
			out = append(out, s.latency)
		}
	}
	return out.sorted()
}

// conn is one keep-alive HTTP/1.1 connection driven by hand: the
// operation's request bytes go to the socket in one write and the reply
// is parsed in place into a reused buffer. A timed pass allocates
// nothing here, so the benchmark's collector and fresh-page faults —
// costly on a VM, and on the CPU the server shares — stay out of the
// program's latencies.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(base string, timeout time.Duration) (*conn, error) {
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		c.Close()
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

var (
	errMalformed     = errors.New("malformed HTTP response")
	httpPrefix       = []byte("HTTP/1.")
	colon            = []byte(":")
	contentLength    = []byte("Content-Length")
	transferEncoding = []byte("Transfer-Encoding")
	chunkedCoding    = []byte("chunked")
)

// number reads an unsigned number of the given base (10 or 16) without
// allocating; ok is false on any other byte or on no digits.
func number(b []byte, base int) (n int, ok bool) {
	for _, c := range b {
		d := base
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		}
		if d >= base || n > 1<<40 {
			return 0, false
		}
		n = n*base + d
	}
	return n, len(b) > 0
}

// do sends one request and reads the whole reply. body is valid until
// the next call.
func (c *conn) do(wire []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, httpPrefix) {
		return 0, nil, errMalformed
	}
	var ok bool
	if status, ok = number(line[9:12], 10); !ok {
		return 0, nil, errMalformed
	}
	length, chunked := -1, false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		name, val, found := bytes.Cut(line, colon)
		if !found {
			return 0, nil, errMalformed
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, contentLength):
			if length, ok = number(val, 10); !ok {
				return 0, nil, errMalformed
			}
		case bytes.EqualFold(name, transferEncoding):
			chunked = bytes.EqualFold(val, chunkedCoding)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			size, ok := number(bytes.TrimSpace(line), 16)
			if !ok {
				return 0, nil, errMalformed
			}
			if err = c.readBody(size + 2); err != nil { // the chunk and its CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if size == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errMalformed // a reply delimited by closing the connection ends a keep-alive loop
	}
	return status, c.body, nil
}

// readBody appends the next n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	if need := at + n; need > cap(c.body) {
		c.body = append(make([]byte, 0, 2*need), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// reply is a response kept for checking after the clock has stopped.
type reply struct {
	op, status int
	off, n     int // its body is arena[off:off+n]
}

// replyArena is how many body bytes a client holds before it has to
// stop and check them; a pass of any workload fits several times over.
const replyArena = 64 << 20

// runLoad drives ops[from:to) against base in a closed loop: clients
// goroutines, one keep-alive connection each, every one sending its
// next request only when the reply to the last is read. The pass ends
// when the range is exhausted or, if limit > 0, when limit has elapsed.
// Latency covers the request and reading the whole body. Replies are
// kept and checked against the oracle when the pass is over, every one
// of them, so checking costs the server no CPU while it is being timed.
// With a recorder, each operation also leaves a root request span.
func runLoad(base string, ops []op, wants [][]want, from, to, clients int, limit time.Duration, rec *spanRecorder) loadResult {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		res    loadResult
		wg     sync.WaitGroup
		start  = time.Now()
		cutoff time.Time
	)
	if from >= to {
		return res
	}
	next.Store(int64(from))
	if limit > 0 {
		cutoff = start.Add(limit)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := loadResult{samples: make([]opSample, 0, (to-from)/clients+1)}
			var (
				replies = make([]reply, 0, cap(local.samples))
				arena   = make([]byte, 0, replyArena)
				wrong   map[int]bool // operations answered wrongly: their samples go
			)
			// check empties the kept replies into the counts.
			check := func() {
				for _, r := range replies {
					o := &ops[r.op]
					switch {
					case r.status == http.StatusTooManyRequests:
						local.fail(&local.rejected429, r.op, o, "status 429")
					case r.status >= 500:
						local.fail(&local.errors5xx, r.op, o, fmt.Sprintf("status %d", r.status))
					case r.status != http.StatusOK:
						local.fail(&local.otherStatus, r.op, o, fmt.Sprintf("status %d", r.status))
					default:
						if err := verifyBody(*o, wants[r.op], arena[r.off:r.off+r.n]); err != nil {
							local.fail(&local.wrong, r.op, o, err.Error())
							if wrong == nil {
								wrong = map[int]bool{}
							}
							wrong[r.op] = true
						}
					}
				}
				replies, arena = replies[:0], arena[:0]
			}
			cn, err := dial(base, limit+10*time.Minute)
			for err == nil {
				i := int(next.Add(1) - 1)
				if i >= to || (limit > 0 && time.Now().After(cutoff)) {
					break
				}
				o := &ops[i]
				local.attempted++
				t0 := time.Now()
				var (
					status int
					body   []byte
				)
				status, body, err = cn.do(o.wire)
				t1 := time.Now()
				if err != nil {
					local.fail(&local.transport, i, o, err.Error())
					break // the connection is in an unknown state
				}
				local.bytesOut += int64(len(body))
				if len(arena)+len(body) > cap(arena) {
					check()
				}
				replies = append(replies, reply{op: i, status: status, off: len(arena), n: len(body)})
				arena = append(arena, body...)
				if status == http.StatusOK {
					id := rec.add("request", 0, i, t0, t1)
					local.samples = append(local.samples, opSample{op: i, kind: o.kind, latency: t1.Sub(t0), end: t1.Sub(start), span: id})
				}
			}
			if cn != nil {
				cn.c.Close()
			} else {
				local.attempted++
				local.fail(&local.transport, from, &ops[from], err.Error())
			}
			wall := time.Since(start)
			check()
			if wrong != nil {
				kept := local.samples[:0]
				for _, sm := range local.samples {
					if !wrong[sm.op] {
						kept = append(kept, sm)
					}
				}
				local.samples = kept
			}
			mu.Lock()
			defer mu.Unlock()
			res.wall = max(res.wall, wall)
			res.samples = append(res.samples, local.samples...)
			res.attempted += local.attempted
			res.transport += local.transport
			res.rejected429 += local.rejected429
			res.errors5xx += local.errors5xx
			res.otherStatus += local.otherStatus
			res.wrong += local.wrong
			res.bytesOut += local.bytesOut
			if res.firstFailure == "" {
				res.firstFailure = local.firstFailure
			}
		}()
	}
	wg.Wait()
	return res
}
