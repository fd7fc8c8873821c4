package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/spine-index/spine/internal/core"
)

// printProvenance records what the numbers were taken on and of.
func printProvenance(cfg *config) {
	tags := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				tags = s.Value
			}
		}
	}
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	for _, kv := range [][2]string{
		{"cpu", cpuModel()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"confined_to_cpu", fmt.Sprint(cfg.cpu)},
		{"clients", fmt.Sprintf("%d (closed loop, one keep-alive connection each)", cfg.clients)},
		{"go", runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH},
		{"commit", gitHead()},
		{"build_tags", fmt.Sprintf("%q", tags)},
		{"scan_kernel_isa", core.ScanKernelISA()},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", fmt.Sprint(cfg.seconds)},
		{"corpus_chars", fmt.Sprint(cfg.chars())},
		{"mode", mode},
	} {
		fmt.Printf("# %s: %s\n", kv[0], kv[1])
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead is the commit measured, with a dirty flag; the pipeline's
// checkout is not a git repository, and says so.
func gitHead() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && len(bytes.TrimSpace(status)) > 0 {
		return strings.TrimSpace(string(head)) + " +dirty"
	}
	return strings.TrimSpace(string(head))
}
