package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/warehouse"
)

// env is what an invocation of the benchmark works in.
type env struct {
	root    string // the checkout: where cmd/zoom is
	zoomBin string
	tmp     string  // removed on exit
	cpus    []int   // the CPUs the benchmark may run on
	sut     []int   // the CPUs the system under test is held to; nil for all
	buildS  float64 // time spent in go build
}

// buildDirName is the one directory, under the checkout root, that the
// benchmark writes to.
const buildDirName = ".bench_build"

// newEnv builds cmd/zoom and makes the temporary directory.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "zoom")); err != nil {
		return nil, fmt.Errorf("%s is not the root of the repository: %w", root, err)
	}
	buildDir := filepath.Join(root, buildDirName)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, zoomBin: filepath.Join(buildDir, "zoom")}
	if e.cpus, err = allowedCPUs(); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", e.zoomBin, "./cmd/zoom")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/zoom: %w\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	if e.tmp, err = os.MkdirTemp(buildDir, "zoomload-"); err != nil {
		return nil, err
	}
	return e, nil
}

// cleanup stops every child and removes the temporary directory.
func (e *env) cleanup() {
	killAll()
	_ = os.RemoveAll(e.tmp) // best effort on the way out
}

// setup is one complete set-up of a workload: a corpus generated,
// ingested, saved, sharded and served, with every run touched once.
type setup struct {
	c        *corpus
	full     *warehouse.Warehouse // the whole corpus, in process: the oracle's copy
	snapshot string               // the v3 file; its shards are beside it
	cl       *cluster

	v3Bytes, shardBytes int64
	ingest, save, total time.Duration
	gather              time.Duration // GET /v1/runs through the router
	warm                loadResult    // the first query of each run
}

// setUp performs one set-up. Everything in it is timed as setup_s. The
// body of every keepEvery-th first query is kept for the oracle.
func (e *env) setUp(ctx context.Context, def corpusDef, keepEvery int) (s *setup, err error) {
	start := time.Now()
	s = &setup{}
	if s.c, err = generate(def); err != nil {
		return nil, err
	}
	if s.full, s.ingest, err = s.c.ingest(); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(e.tmp, "wh-")
	if err != nil {
		return nil, err
	}
	s.snapshot = filepath.Join(dir, "wh.v3")
	t := time.Now()
	if s.v3Bytes, err = saveV3(s.full, s.snapshot); err != nil {
		return nil, err
	}
	s.save = time.Since(t)

	shard := exec.CommandContext(ctx, e.zoomBin, "snapshot", "shard", "-in", s.snapshot, "-n", "2")
	var out bytes.Buffer
	shard.Stdout, shard.Stderr = &out, &out
	if err = startOn(shard, e.sut); err == nil {
		err = shard.Wait()
	}
	if err != nil {
		return nil, fmt.Errorf("zoom snapshot shard: %w\n%s", err, out.Bytes())
	}
	for k := 0; k < 2; k++ {
		fi, err := os.Stat(fmt.Sprintf("%s.shard%d", s.snapshot, k))
		if err != nil {
			return nil, err
		}
		s.shardBytes += fi.Size()
	}

	if s.cl, err = bootCluster(ctx, e.zoomBin, s.snapshot, e.sut); err != nil {
		return nil, err
	}
	cl := s.cl
	defer func() {
		if err != nil {
			cl.kill()
		}
	}()
	warmup, err := warmTape(s.c)
	if err != nil {
		return nil, err
	}
	s.warm = drive(s.cl.ctx, s.cl.rurl, warmup, 1, time.Hour, keepEvery, false)
	if n := failures(s.warm); n > 0 || len(s.warm.samples) != len(s.c.runs) {
		if err := s.cl.failure(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("warm-up: %d of %d first queries failed", n, len(s.c.runs))
	}
	t = time.Now()
	body, err := get(s.cl.rurl, "/v1/runs")
	if err != nil {
		return nil, err
	}
	s.gather = time.Since(t)
	var listing struct {
		Count   int  `json:"count"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return nil, fmt.Errorf("decode /v1/runs: %w", err)
	}
	if listing.Count != len(s.c.runs) || listing.Partial {
		return nil, fmt.Errorf("/v1/runs through the router lists %d runs (partial=%v), corpus has %d",
			listing.Count, listing.Partial, len(s.c.runs))
	}
	s.total = time.Since(start)
	return s, nil
}

// saveV3 writes a warehouse as a v3 snapshot and returns its size.
func saveV3(w *warehouse.Warehouse, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := w.SaveV3(f); err != nil {
		_ = f.Close() // the save error is the one to report
		return 0, fmt.Errorf("save v3: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// usage is what the children of a set-up have cost so far.
type usage struct {
	routerCPU, workerCPU int64 // microseconds
	routerHWM, workerHWM int64 // bytes
}

func (s *setup) usage() (u usage, err error) {
	if u.routerCPU, err = cpuOf(s.cl.router); err != nil {
		return u, err
	}
	if u.workerCPU, err = cpuOf(s.cl.workers[:]...); err != nil {
		return u, err
	}
	if u.routerHWM, err = hwmOf(s.cl.router); err != nil {
		return u, err
	}
	u.workerHWM, err = hwmOf(s.cl.workers[:]...)
	return u, err
}

// tearDown drains the children, which must exit with code 0, and removes
// the set-up's files.
func (s *setup) tearDown() error {
	err := s.cl.failure()
	err = errors.Join(err, s.cl.stop(), s.full.Close())
	return errors.Join(err, os.RemoveAll(filepath.Dir(s.snapshot)))
}

// isolate gives the load generator a CPU of its own and holds the system
// under test to the others, or undoes that. An open loop at a fixed rate
// leaves both mostly idle, and what it measures is then how fast a sleeping
// thread is woken: with generator and system sharing CPUs, the median
// latency of the same run fell in either of two modes a factor of two
// apart. A closed loop keeps every CPU busy and is left alone: holding
// three processes to one CPU there made it no steadier and halved it.
func (e *env) isolate(on bool) error {
	mine := e.cpus
	e.sut = nil
	if on && len(e.cpus) >= 2 {
		mine, e.sut = e.cpus[:1], e.cpus[1:]
	}
	// The runtime sized itself to the CPUs it found at start; the children
	// will do the same at theirs.
	runtime.GOMAXPROCS(len(mine))
	return pinSelf(mine)
}
