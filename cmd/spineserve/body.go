package main

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// The single-pattern query bodies are built with strconv appends into a
// pooled buffer instead of encoding a map[string]any through
// encoding/json. Each append* function produces exactly the bytes
// json.NewEncoder(w).Encode produced for the map the handler used to
// build: keys in sorted order, no spaces, a trailing newline, and a nil
// positions slice as null.

// body is a pooled response buffer.
type body struct{ b []byte }

// maxPooledBody caps the buffers kept for reuse, so one huge findall
// answer does not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

var bodies = sync.Pool{New: func() any { return &body{b: make([]byte, 0, 256)} }}

func newBody() *body {
	bd := bodies.Get().(*body)
	bd.b = bd.b[:0]
	return bd
}

// send writes the buffer as the JSON response and recycles it.
func (bd *body) send(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(bd.b) // headers are gone; nothing to salvage mid-stream
	if cap(bd.b) <= maxPooledBody {
		bodies.Put(bd)
	}
}

// appendContainsBody appends {"contains":found}.
func appendContainsBody(b []byte, found bool) []byte {
	b = append(b, `{"contains":`...)
	b = strconv.AppendBool(b, found)
	return append(b, "}\n"...)
}

// appendFindBody appends {"position":pos}.
func appendFindBody(b []byte, pos int) []byte {
	b = append(b, `{"position":`...)
	b = strconv.AppendInt(b, int64(pos), 10)
	return append(b, "}\n"...)
}

// appendCountBody appends {"count":n}.
func appendCountBody(b []byte, n int) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "}\n"...)
}

// appendFindAllBody appends {"count":len,"positions":[...],"truncated":t}.
func appendFindAllBody(b []byte, positions []int, truncated bool) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(positions)), 10)
	b = append(b, `,"positions":`...)
	if positions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range positions {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"truncated":`...)
	b = strconv.AppendBool(b, truncated)
	return append(b, "}\n"...)
}

// queryValue returns the first value of key in the request's query
// string, decoded as url.ParseQuery decodes it ("+" is a space,
// %-escapes), and "" when absent — what r.URL.Query().Get(key) returns,
// without building the url.Values map. Pairs ParseQuery rejects (a
// semicolon anywhere in the pair, a bad escape in the key or value) are
// skipped as it skips them.
func queryValue(r *http.Request, key string) string {
	q := r.URL.RawQuery
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil || k != key {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		return v
	}
	return ""
}
