// Batch query serving: the engine's concurrent face. The paper's
// prototype answers one query at a time for one interactive user; a
// provenance warehouse serving many users sees bursts of deep-provenance
// queries over the same few runs. DeepProvenanceBatch and DeepAnswerBatch
// answer many data objects of one run under one view with a bounded worker
// pool, and lean on the warehouse's sharded singleflight cache: concurrent
// queries that need the same UAdmin closure compute it once and share it.
package provenance

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// serve is the worker pool behind the batch entry points: it answers the
// deep provenance of each of dataIDs in run runID under v. done is called
// once per id, on the worker's goroutine (so possibly from several at
// once), with the answer or its error; an id not yet started when ctx is
// cancelled reports ctx.Err(). workers <= 0 selects GOMAXPROCS; the pool
// never exceeds len(dataIDs).
func (e *Engine) serve(ctx context.Context, runID string, v *core.UserView, dataIDs []string, workers int, done func(idx int, a *Answer, err error)) {
	if len(dataIDs) == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(dataIDs) {
		workers = len(dataIDs)
	}
	if m := e.obs.Load(); m != nil {
		m.batchSize.Observe(int64(len(dataIDs)))
		m.batchWorkers.Observe(int64(workers))
		m.batches.Inc()
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				d := dataIDs[idx]
				if err := ctx.Err(); err != nil {
					done(idx, nil, err)
					continue
				}
				// Under a traced context each worker query gets its own
				// span (a sibling under the batch's root), so a traced
				// batch response shows per-query concurrency and which
				// member query was the slow one.
				qctx, qsp := obs.StartSpan(ctx, "batch.query "+d)
				a, err := e.deepAnswer(qctx, runID, v, d)
				qsp.End()
				done(idx, a, err)
			}
		}()
	}
	for idx := range dataIDs {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
}

// DeepProvenanceBatch answers the deep provenance of many data objects of
// one run under one view, in parallel, returning results in dataIDs order.
// It is exactly equivalent to calling DeepProvenance sequentially for each
// id (a property the tests pin); the first failing query aborts the batch
// with its error: queries not yet started when the failure surfaces are
// cancelled instead of computed, so a bad id near the front of a large
// batch does not cost the whole batch's work. workers <= 0 selects
// GOMAXPROCS.
func (e *Engine) DeepProvenanceBatch(ctx context.Context, runID string, v *core.UserView, dataIDs []string, workers int) ([]*Result, error) {
	return deepBatch(ctx, e, runID, v, dataIDs, workers, (*Answer).Result)
}

// DeepAnswerBatch is DeepProvenanceBatch stopping at the integer answers,
// which is what the server encodes.
func (e *Engine) DeepAnswerBatch(ctx context.Context, runID string, v *core.UserView, dataIDs []string, workers int) ([]*Answer, error) {
	return deepBatch(ctx, e, runID, v, dataIDs, workers, func(a *Answer) *Answer { return a })
}

// deepBatch runs one batch; each answer becomes its entry of the result on
// the goroutine that computed it.
func deepBatch[T any](ctx context.Context, e *Engine, runID string, v *core.UserView, dataIDs []string, workers int, entry func(*Answer) T) ([]T, error) {
	// Abort the pool on the first failure. The child context keeps the
	// induced cancellation distinguishable from one the caller issued.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out, errs := make([]T, len(dataIDs)), make([]error, len(dataIDs))
	e.serve(cctx, runID, v, dataIDs, workers, func(i int, a *Answer, err error) {
		if errs[i] = err; err != nil {
			cancel()
			return
		}
		out[i] = entry(a)
	})
	// With the parent context clean, any context error in the results is
	// our own abort propagating — skip those entries to report the genuine
	// failure that caused them; everything else (including context errors
	// when the caller really did cancel) reports as before.
	skipInduced := ctx.Err() == nil
	for i, err := range errs {
		if err == nil {
			continue
		}
		if skipInduced && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return nil, fmt.Errorf("batch query %d (%s): %w", i, dataIDs[i], err)
	}
	return out, nil
}
