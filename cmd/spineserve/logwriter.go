package main

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// logFlushInterval bounds how long a request-log line waits in the
// buffer before it reaches stderr.
const logFlushInterval = 100 * time.Millisecond

// logWriter buffers the process log, so that logging a request costs no
// write(2) of its own. A line reaches the underlying writer at the
// latest flushEvery after it was written, at once when a record at Warn
// or above is logged (see logHandler; a panic's line is never held
// back), and at Close, which also makes later writes unbuffered.
type logWriter struct {
	mu         sync.Mutex
	buf        *bufio.Writer
	flushEvery time.Duration
	timer      *time.Timer // flushes the buffer flushEvery after it became non-empty
	armed      bool
	closed     bool
}

func newLogWriter(w io.Writer, flushEvery time.Duration) *logWriter {
	lw := &logWriter{buf: bufio.NewWriterSize(w, 32<<10), flushEvery: flushEvery}
	lw.timer = time.AfterFunc(flushEvery, lw.tick)
	lw.timer.Stop()
	return lw
}

func (lw *logWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	n, err := lw.buf.Write(p)
	switch {
	case lw.closed:
		if ferr := lw.buf.Flush(); err == nil {
			err = ferr
		}
	case !lw.armed && lw.buf.Buffered() > 0:
		lw.armed = true
		lw.timer.Reset(lw.flushEvery)
	}
	return n, err
}

func (lw *logWriter) tick() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.armed = false
	_ = lw.buf.Flush() // a failing stderr has nowhere to report to
}

// Flush writes out everything buffered so far.
func (lw *logWriter) Flush() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.buf.Flush()
}

// Close flushes the buffer and stops the flush timer; writes after it
// go straight through.
func (lw *logWriter) Close() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.closed = true
	lw.timer.Stop()
	return lw.buf.Flush()
}

// logHandler is the handler newLogger builds: slog's text or JSON
// handler over a logWriter, flushing it after every record at Warn or
// above so errors and panics are on stderr before the call returns.
type logHandler struct {
	slog.Handler
	w *logWriter
}

func (h *logHandler) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	if r.Level >= slog.LevelWarn {
		if ferr := h.w.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

func (h *logHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &logHandler{h.Handler.WithAttrs(attrs), h.w}
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	return &logHandler{h.Handler.WithGroup(name), h.w}
}
