// Batch queries: many data objects of one run under one view in one
// call, answered in order on the caller's goroutine. Concurrency comes
// from the callers — net/http serves each request on its own goroutine —
// and concurrent batches that need the same UAdmin closure compute it once
// through the warehouse's singleflight cache.
package provenance

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// DeepProvenanceBatch answers the deep provenance of many data objects of
// one run under one view, returning results in dataIDs order. It is
// exactly equivalent to calling DeepProvenance for each id in turn (a
// property the tests pin). The first failing query ends the batch with its
// error, and no later id is computed.
func (e *Engine) DeepProvenanceBatch(ctx context.Context, runID string, v *core.UserView, dataIDs []string) ([]*Result, error) {
	answers, err := e.DeepAnswerBatch(ctx, runID, v, dataIDs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(answers))
	for i, a := range answers {
		out[i] = a.Result()
	}
	return out, nil
}

// DeepAnswerBatch is DeepProvenanceBatch stopping at the integer answers,
// which is what the server encodes. The context is checked before each id,
// and under a traced context each id gets its own "batch.query <id>" span,
// so a traced batch shows which member query was the slow one.
func (e *Engine) DeepAnswerBatch(ctx context.Context, runID string, v *core.UserView, dataIDs []string) ([]*Answer, error) {
	if m := e.obs.Load(); m != nil && len(dataIDs) > 0 {
		m.batchSize.Observe(int64(len(dataIDs)))
		m.batches.Inc()
	}
	out := make([]*Answer, len(dataIDs))
	for i, d := range dataIDs {
		err := ctx.Err()
		if err == nil {
			qctx, qsp := obs.StartSpan(ctx, "batch.query "+d)
			out[i], err = e.DeepAnswerCtx(qctx, runID, v, d)
			qsp.End()
		}
		if err != nil {
			return nil, fmt.Errorf("batch query %d (%s): %w", i, d, err)
		}
	}
	return out, nil
}
