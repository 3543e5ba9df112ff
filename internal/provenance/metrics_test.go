package provenance

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/warehouse"
)

// TestBatchFailFastAbortsRemaining is the regression test for the wasted
// work bug: DeepProvenanceBatch documents that the first failing query
// ends the batch, but an old implementation ran every query to completion
// first. With the bad id first, no query after the failure may reach the
// closure cache.
func TestBatchFailFastAbortsRemaining(t *testing.T) {
	e, r, views := phyloEngine(t)
	ids := []string{"no-such-data", "d447", "d413", "d408", "d311"}
	_, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"], ids)
	if !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("err = %v, want ErrUnknownData", err)
	}
	if !strings.Contains(err.Error(), "batch query 0 (no-such-data)") {
		t.Fatalf("error does not name the failing query: %v", err)
	}
	c := e.Warehouse().CacheCounters()
	// Exactly one lookup happened: the failing one. The four good queries
	// were never started.
	if lookups := c.Hits + c.Misses + c.SharedWaits; lookups != 1 {
		t.Fatalf("%d closure lookups after early failure, want 1 (wasted work): %+v", lookups, c)
	}
}

// TestBatchFailFastReportsFirstGenuineError: with the failure in the
// middle, earlier successes complete, the failure is reported under its own
// index as itself, not as a cancellation, and no later id is computed.
func TestBatchFailFastReportsFirstGenuineError(t *testing.T) {
	e, r, views := phyloEngine(t)
	ids := []string{"d447", "d413", "bogus", "d408", "d311", "d352"}
	_, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["joe"], ids)
	if !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("err = %v, want ErrUnknownData", err)
	}
	if !strings.Contains(err.Error(), "batch query 2 (bogus)") {
		t.Fatalf("wrong query blamed: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("a cancellation leaked into the batch error: %v", err)
	}
	if c := e.Warehouse().CacheCounters(); c.Computes != 3 {
		t.Fatalf("%d closure computes, want the 3 up to the bad id: %+v", c.Computes, c)
	}
}

// TestBatchCallerCancellationStillReported: fail-fast must not swallow a
// cancellation the caller issued — that still surfaces as a context error.
func TestBatchCallerCancellationStillReported(t *testing.T) {
	e, r, views := phyloEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.DeepProvenanceBatch(ctx, r.ID(), views["admin"], []string{"d447", "d413"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineMetricsOutcomes: an attached engine splits query latency by
// cache outcome and counts stages; detach stops recording.
func TestEngineMetricsOutcomes(t *testing.T) {
	e, r, views := phyloEngine(t)
	reg := obs.NewRegistry()
	e.AttachMetrics(reg)
	e.Warehouse().AttachMetrics(reg)

	if _, err := e.DeepProvenance(r.ID(), views["joe"], "d447"); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := e.DeepProvenance(r.ID(), views["mary"], "d447"); err != nil { // hit (view switch)
		t.Fatal(err)
	}
	if _, err := e.DeepProvenance(r.ID(), views["admin"], "nope"); err == nil { // error
		t.Fatal("bad data id succeeded")
	}
	s := reg.Snapshot()
	if s.Counters["query.deep_total"] != 2 || s.Counters["query.errors"] != 1 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if s.Histograms["query.deep_total_ns.miss"].Count != 1 {
		t.Fatalf("miss histogram: %+v", s.Histograms["query.deep_total_ns.miss"])
	}
	if s.Histograms["query.deep_total_ns.hit"].Count != 1 {
		t.Fatalf("hit histogram: %+v", s.Histograms["query.deep_total_ns.hit"])
	}
	// The warehouse times every compute, the failed one too, and no hit.
	if n := s.Histograms["cache.compute_ns"].Count; n != 2 {
		t.Fatalf("cache.compute_ns holds %d computes, want the 2 misses", n)
	}
	if s.Histograms["query.lookup_ns"].Count != 2 || s.Histograms["query.project_ns"].Count != 2 {
		t.Fatalf("stage histograms: %+v", s.Histograms)
	}
	// The failed lookup counts as a cache miss too (its compute errored, so
	// nothing was stored), hence 2 misses but only 1 store.
	if s.Counters["cache.hits"] != 1 || s.Counters["cache.misses"] != 2 || s.Counters["cache.stores"] != 1 {
		t.Fatalf("cache mirror counters: %+v", s.Counters)
	}

	e.AttachMetrics(nil)
	e.Warehouse().AttachMetrics(nil)
	if _, err := e.DeepProvenance(r.ID(), views["joe"], "d447"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["query.deep_total"]; n != 2 {
		t.Fatalf("detached engine still recorded: %d", n)
	}
}

// TestBatchMetrics: a batch records its size and counts itself.
func TestBatchMetrics(t *testing.T) {
	e, r, views := phyloEngine(t)
	reg := obs.NewRegistry()
	e.AttachMetrics(reg)
	ids := r.AllData()[:6]
	if _, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"], ids); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["batch.count"] != 1 {
		t.Fatalf("batch.count = %d", s.Counters["batch.count"])
	}
	if s.Histograms["batch.size"].Max != 6 {
		t.Fatalf("batch.size max = %d, want 6", s.Histograms["batch.size"].Max)
	}
}

// TestDeepProvenanceTraced checks the per-stage breakdown a traced context
// records: a cold query is a lookup tagged miss with the closure compute
// beneath it, the warm re-query of the same key under another view is a
// hit with no compute, and both project. With no registry attached the
// spans still time themselves.
func TestDeepProvenanceTraced(t *testing.T) {
	e, r, views := phyloEngine(t)
	query := func(view string) obs.SpanNode {
		t.Helper()
		tr := obs.NewTrace("query")
		if _, err := e.DeepProvenanceCtx(tr.Context(context.Background()), r.ID(), views[view], "d447"); err != nil {
			t.Fatal(err)
		}
		return tr.Finish()
	}
	cold := query("joe")
	look := cold.Find("query.lookup")
	if look == nil || look.Tags["outcome"] != "miss" {
		t.Fatalf("cold lookup missing or not a miss: %+v", cold)
	}
	comp := look.Find("closure.compute")
	if comp == nil || comp.DurNs <= 0 || look.DurNs < comp.DurNs {
		t.Fatalf("cold compute missing or outside its lookup: %+v", look)
	}
	if p := cold.Find("query.project"); p == nil || p.DurNs <= 0 {
		t.Fatalf("cold projection missing: %+v", cold)
	}
	warm := query("mary")
	if look := warm.Find("query.lookup"); look == nil || look.Tags["outcome"] != "hit" {
		t.Fatalf("warm lookup missing or not a hit (closure cached across view switch): %+v", warm)
	}
	if warm.Find("closure.compute") != nil {
		t.Fatalf("warm query reports a compute stage: %+v", warm)
	}
	if warm.Find("query.project") == nil {
		t.Fatalf("warm projection missing: %+v", warm)
	}
}

// TestMappingBuildTraced: a traced query under a view the run has no
// mapping for yet records the mapping's build as "mapping.compute" beneath
// the stage that asked for it (query.project for deep provenance,
// query.immediate for immediate); asked again under the same view, the
// mapping is a hit and records no span.
func TestMappingBuildTraced(t *testing.T) {
	e, r, views := phyloEngine(t)
	traced := func(q func(ctx context.Context) error) obs.SpanNode {
		t.Helper()
		tr := obs.NewTrace("query")
		if err := q(tr.Context(context.Background())); err != nil {
			t.Fatal(err)
		}
		return tr.Finish()
	}
	deep := func(ctx context.Context) error {
		_, err := e.DeepAnswerCtx(ctx, r.ID(), views["joe"], "d447")
		return err
	}
	immediate := func(ctx context.Context) error {
		_, _, err := e.ImmediateAnswerCtx(ctx, r.ID(), views["mary"], "d413")
		return err
	}
	for _, tc := range []struct {
		stage string
		query func(context.Context) error
	}{{"query.project", deep}, {"query.immediate", immediate}} {
		cold := traced(tc.query)
		stage := cold.Find(tc.stage)
		if stage == nil {
			t.Fatalf("cold %s missing: %+v", tc.stage, cold)
		}
		if b := stage.Find("mapping.compute"); b == nil || b.DurNs <= 0 || stage.DurNs < b.DurNs {
			t.Fatalf("cold view: no mapping.compute within %s: %+v", tc.stage, cold)
		}
		if warm := traced(tc.query); warm.Find(tc.stage) == nil || warm.Find("mapping.compute") != nil {
			t.Fatalf("warm view: want %s and no mapping.compute: %+v", tc.stage, warm)
		}
	}
}
