package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a CPU set as sched_setaffinity takes it.
type cpuMask [16]uint64

func maskOf(cpus []int) (m cpuMask) {
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// setAffinity restricts one thread (0: the calling one) to a CPU set.
func setAffinity(tid int, m cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinSelf restricts every thread of the benchmark to a CPU set. Threads
// made later inherit it from the thread that makes them.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, maskOf(cpus)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// startOn starts a command restricted to a CPU set. A child inherits the
// affinity of the thread that forks it, so the calling thread takes the set
// for the length of the fork.
func startOn(cmd *exec.Cmd, cpus []int) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := setAffinity(0, maskOf(cpus)); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, maskOf(mine)); err != nil {
		return err
	}
	return startErr
}
