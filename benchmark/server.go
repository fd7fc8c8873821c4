package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/spineserve into dir and returns the binary's
// path. The benchmark runs from the module root (main checks).
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "spineserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spineserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/spineserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one spineserve subprocess serving an index image.
type server struct {
	cmd    *exec.Cmd
	argv   []string
	base   string // http://127.0.0.1:port
	stderr *os.File
	exited chan struct{}
	client *http.Client // operational requests (healthz, metrics), not load
}

// startServer spawns spineserve on a free loopback port with default
// flags plus extra, its stderr (the default request log) going to a
// file in dir, and returns once /healthz answers 200.
func startServer(bin, image, dir string, extra []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.CreateTemp(dir, "spineserve-*.log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-index-file", image, "-addr", addr}, extra...)
	s := &server{
		cmd:    exec.Command(bin, args...),
		argv:   append([]string{"spineserve"}, args...),
		base:   "http://" + addr,
		stderr: logf,
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second},
	}
	s.cmd.Stderr = logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start spineserve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // a signalled exit is expected; stop reports the log on trouble
		close(s.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("spineserve exited during start-up:\n%s", s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("spineserve not healthy after 15s:\n%s", s.logTail())
		}
	}
}

// stop ends the server — SIGTERM, then SIGKILL if the drain takes over
// three seconds — and waits until the process is gone.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(3 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.stderr.Close()
}

func (s *server) logTail() string {
	b, err := os.ReadFile(s.stderr.Name())
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// serverMetrics is the part of GET /metrics the suite reads.
type serverMetrics struct {
	Endpoints map[string]struct {
		Requests  int64 `json:"requests"`
		Errors5xx int64 `json:"errors5xx"`
		Rejected  int64 `json:"rejected"`
	} `json:"endpoints"`
	Cache struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		NegRejects  int64 `json:"negRejects"`
		NegFalsePos int64 `json:"negFalsePos"`
		Entries     int64 `json:"entries"`
		Bytes       int64 `json:"bytes"`
		Evictions   int64 `json:"evictions"`
	} `json:"cache"`
	Obs struct {
		Dropped int64 `json:"dropped"`
	} `json:"obs"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (m serverMetrics) rejected() (n int64) {
	for _, e := range m.Endpoints {
		n += e.Rejected
	}
	return n
}

func (m serverMetrics) errors5xx() (n int64) {
	for _, e := range m.Endpoints {
		n += e.Errors5xx
	}
	return n
}

// procUsage reads a live process's peak resident set and consumed CPU
// time from /proc.
type procUsage struct {
	peakRSSMiB float64
	cpu        time.Duration // utime + stime
}

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return u, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			u.peakRSSMiB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name, field 2, is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15, in clock ticks (100 Hz on
	// every Linux the suite runs on).
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	u.cpu = time.Duration(utime+stime) * (time.Second / 100)
	return u, nil
}

func (s *server) usage() (procUsage, error) { return readProcUsage(s.cmd.Process.Pid) }
