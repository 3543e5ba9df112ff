package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat. The kernel
// reports them in USER_HZ, which is 100 on every Linux ABI Go runs on.
const userHZ = 100

// parseProcStat returns utime+stime, in microseconds, from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself hold spaces or parentheses, so fields are counted from the last
// ')'.
func parseProcStat(text string) (cpuUS int64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return (utime + stime) * (1e6 / userHZ), nil
}

// parseVmHWM returns the peak resident set size, in bytes, from the text
// of /proc/<pid>/status.
func parseVmHWM(text string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseSchedstat returns the time on a CPU, in microseconds, from the text
// of a schedstat file: its first field, in nanoseconds.
func parseSchedstat(text string) (int64, error) {
	f := strings.Fields(text)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields in %q, want 3", len(f), text)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return ns / 1e3, nil
}

// procCPU reads a live process's CPU time in microseconds. The scheduler's
// own count, summed over the process's threads, is exact. The tick counts
// of /proc/<pid>/stat are samples taken every 10 ms: for a process that runs
// in bursts of 100 us and is idle most of the time they are off by several
// percent over a window, so they are read only where the kernel keeps no
// schedstat.
func procCPU(pid int) (int64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if os.IsNotExist(err) {
			if _, statErr := os.Stat(fmt.Sprintf("/proc/%d/task/%s", pid, t.Name())); statErr != nil {
				continue // the thread exited between the listing and the read
			}
			return procCPUTicks(pid)
		}
		if err != nil {
			return 0, err
		}
		us, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		total += us
	}
	return total, nil
}

// procCPUTicks reads a live process's CPU time from its tick counts.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procHWM reads a live process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseProm reads Prometheus text exposition into a map from series (the
// metric name with its label set, exactly as printed) to value. Comment
// lines are skipped; a line that is not "series value" is an error, so a
// changed exposition format fails loudly and does not read as zeros.
func parseProm(text []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}
