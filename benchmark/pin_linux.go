//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already confined itself.
const pinnedEnv = "SPINE_BENCHMARK_PINNED"

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU confines the benchmark, and so every process it starts,
// to a single CPU: the highest-numbered one it may run on (CPU 0 takes
// the VM's device interrupts). Affinity set on a running Go process
// reaches only the calling thread, so the process sets it and then
// replaces itself with a fresh copy, which inherits it on every thread
// and sizes its scheduler to it. On return, *cpu is the CPU in use, or
// -1 when the host would not say.
func pinToOneCPU() (cpu int, err error) {
	if v := os.Getenv(pinnedEnv); v != "" {
		fmt.Sscan(v, &cpu)
		return cpu, nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var have cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(have), uintptr(unsafe.Pointer(&have))); e != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu = -1
	for i, w := range have {
		if w != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var want cpuMask
	want[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(want), uintptr(unsafe.Pointer(&want))); e != 0 {
		return -1, fmt.Errorf("sched_setaffinity: %w", e)
	}
	self, err := os.Executable()
	if err != nil {
		return -1, err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu))
	return -1, syscall.Exec(self, os.Args, env) // returns only on failure
}
