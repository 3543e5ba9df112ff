package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tailLines is how much of a child's stderr is kept for an error report.
const tailLines = 20

// stopGrace is how long a child gets to drain after SIGTERM before it is
// killed. The programs' own drain timeout is 5 s.
const stopGrace = 8 * time.Second

// child is one process of the system under test.
type child struct {
	name    string
	cmd     *exec.Cmd
	started time.Time
	addr    chan string   // receives the base URL the child says it listens on
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // valid after exited is closed

	stopping atomic.Bool

	mu   sync.Mutex
	tail []string
}

// live is every child not yet waited for, so that any exit path can stop
// them all.
var live struct {
	mu     sync.Mutex
	m      map[*child]struct{}
	closed bool // set by killAll: nothing is started after it
}

// spawn starts a child, on the given CPUs when any are given, and follows
// its stderr. When the child exits without having been asked to, onDeath is
// called with the reason.
func spawn(name string, cpus []int, onDeath func(error), bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	ch := &child{name: name, cmd: cmd, addr: make(chan string, 1), exited: make(chan struct{}), started: time.Now()}
	live.mu.Lock()
	if live.closed {
		live.mu.Unlock()
		return nil, fmt.Errorf("spawn %s: the benchmark is shutting down", name)
	}
	if err := startOn(cmd, cpus); err != nil {
		live.mu.Unlock()
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	if live.m == nil {
		live.m = make(map[*child]struct{})
	}
	live.m[ch] = struct{}{}
	live.mu.Unlock()

	go func() {
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			ch.mu.Lock()
			ch.tail = append(ch.tail, line)
			if len(ch.tail) > tailLines {
				ch.tail = ch.tail[1:]
			}
			ch.mu.Unlock()
			if i := strings.Index(line, "listening on http://"); i >= 0 && !announced {
				announced = true
				url := line[i+len("listening on "):]
				if j := strings.IndexAny(url, ", "); j >= 0 {
					url = url[:j]
				}
				ch.addr <- url
			}
		}
		// Wait only after stderr is drained: it closes the pipe.
		ch.waitErr = cmd.Wait()
		live.mu.Lock()
		delete(live.m, ch)
		live.mu.Unlock()
		close(ch.exited)
		if !ch.stopping.Load() {
			onDeath(fmt.Errorf("%s exited on its own: %v\n%s", name, ch.waitErr, ch.stderrTail()))
		}
	}()
	return ch, nil
}

func (ch *child) stderrTail() string {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return "  | " + strings.Join(ch.tail, "\n  | ")
}

// listenAddr waits for the child to print where it listens.
func (ch *child) listenAddr(ctx context.Context) (string, error) {
	select {
	case a := <-ch.addr:
		return a, nil
	case <-ch.exited:
		return "", fmt.Errorf("%s exited before listening: %v\n%s", ch.name, ch.waitErr, ch.stderrTail())
	case <-ctx.Done():
		return "", fmt.Errorf("%s did not announce its address: %w", ch.name, context.Cause(ctx))
	}
}

// stop asks the child to drain and requires that it exits with code 0.
func (ch *child) stop() error {
	ch.stopping.Store(true)
	select {
	case <-ch.exited:
	default:
		_ = ch.cmd.Process.Signal(syscall.SIGTERM) // an error means it is gone already
	}
	select {
	case <-ch.exited:
	case <-time.After(stopGrace):
		_ = ch.cmd.Process.Kill()
		<-ch.exited
		return fmt.Errorf("%s did not drain within %s and was killed\n%s", ch.name, stopGrace, ch.stderrTail())
	}
	if ch.waitErr != nil {
		return fmt.Errorf("%s did not exit cleanly: %w\n%s", ch.name, ch.waitErr, ch.stderrTail())
	}
	return nil
}

// killAll stops every live child: SIGTERM, then SIGKILL for any still
// running a second later. It is the last step of every exit path.
func killAll() {
	live.mu.Lock()
	live.closed = true
	var all []*child
	for ch := range live.m {
		all = append(all, ch)
	}
	live.mu.Unlock()
	for _, ch := range all {
		ch.stopping.Store(true)
		_ = ch.cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.After(time.Second)
	for _, ch := range all {
		select {
		case <-ch.exited:
		case <-deadline:
			_ = ch.cmd.Process.Kill()
			<-ch.exited
		}
	}
}

// cluster is the topology every workload runs against: two mmap-serving
// workers, one per shard, behind one router.
type cluster struct {
	workers [2]*child
	router  *child
	wurl    [2]string
	rurl    string

	// ctx is cancelled, with the reason, when a child dies unasked.
	ctx    context.Context
	cancel context.CancelCauseFunc

	stopped bool // stop has run: the children are gone because they were asked to go

	workerReady time.Duration // worker spawn until its /readyz is 200 (the slower of the two)
	ready       time.Duration // first spawn until the router's /readyz is 200
}

// bootCluster starts the three processes over the two shard files
// <snapshot>.shard0 and .shard1, on the given CPUs when any are given, and
// returns once the router reports every shard ready.
func bootCluster(parent context.Context, zoomBin, snapshot string, cpus []int) (*cluster, error) {
	cl := &cluster{}
	cl.ctx, cl.cancel = context.WithCancelCause(parent)
	ok := false
	defer func() {
		if !ok {
			cl.kill()
		}
	}()
	bootCtx, cancel := context.WithTimeout(cl.ctx, 30*time.Second)
	defer cancel()

	t0 := time.Now()
	for k := range cl.workers {
		w, err := spawn(fmt.Sprintf("worker%d", k), cpus, cl.cancel, zoomBin, "serve",
			"-warehouse", fmt.Sprintf("%s.shard%d", snapshot, k), "-mmap", "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cl.workers[k] = w
	}
	for k, w := range cl.workers {
		a, err := w.listenAddr(bootCtx)
		if err != nil {
			return nil, err
		}
		cl.wurl[k] = a
		if err := pollReady(bootCtx, a); err != nil {
			return nil, fmt.Errorf("worker%d: %w", k, err)
		}
		if d := time.Since(w.started); d > cl.workerReady {
			cl.workerReady = d
		}
	}
	rt, err := spawn("router", cpus, cl.cancel, zoomBin, "router", "-addr", "127.0.0.1:0",
		"-workers", cl.wurl[0]+","+cl.wurl[1], "-health-interval", "200ms")
	if err != nil {
		return nil, err
	}
	cl.router = rt
	if cl.rurl, err = rt.listenAddr(bootCtx); err != nil {
		return nil, err
	}
	if err := pollReady(bootCtx, cl.rurl); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	cl.ready = time.Since(t0)
	ok = true
	return cl, nil
}

// pollReady polls /readyz every millisecond until it answers 200.
func pollReady(ctx context.Context, base string) error {
	c := newConn(base)
	defer c.close()
	req := getRequest("/readyz")
	for {
		if r, err := c.do(req, nil); err == nil && r.status == 200 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/readyz not 200: %w", base, context.Cause(ctx))
		case <-time.After(time.Millisecond):
		}
	}
}

func (cl *cluster) children() []*child {
	out := make([]*child, 0, 3)
	if cl.router != nil {
		out = append(out, cl.router)
	}
	for _, w := range cl.workers {
		if w != nil {
			out = append(out, w)
		}
	}
	return out
}

// stop drains the router, then the workers, and reports the first child
// that did not exit with code 0.
func (cl *cluster) stop() error {
	if cl.stopped {
		return nil
	}
	cl.stopped = true
	defer cl.cancel(nil)
	var errs []error
	for _, ch := range cl.children() {
		ch.stopping.Store(true)
	}
	for _, ch := range cl.children() {
		errs = append(errs, ch.stop())
	}
	return errors.Join(errs...)
}

// kill stops the cluster without caring how it exits.
func (cl *cluster) kill() {
	cl.cancel(nil)
	for _, ch := range cl.children() {
		ch.stopping.Store(true)
		_ = ch.cmd.Process.Kill()
		<-ch.exited
	}
}

// failure reports the death of a child that nobody asked to stop.
func (cl *cluster) failure() error {
	if !cl.stopped && cl.ctx.Err() != nil {
		return context.Cause(cl.ctx)
	}
	return nil
}

// cpu sums the CPU time, in microseconds, of the given children.
func cpuOf(children ...*child) (int64, error) {
	var total int64
	for _, ch := range children {
		us, err := procCPU(ch.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("cpu of %s: %w", ch.name, err)
		}
		total += us
	}
	return total, nil
}

// hwmOf sums the peak resident set sizes, in bytes, of the given children.
func hwmOf(children ...*child) (int64, error) {
	var total int64
	for _, ch := range children {
		b, err := procHWM(ch.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("rss of %s: %w", ch.name, err)
		}
		total += b
	}
	return total, nil
}

// selfCPU is the benchmark's own CPU time in microseconds.
func selfCPU() (int64, error) { return procCPU(os.Getpid()) }
