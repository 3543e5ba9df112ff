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
// aborts the batch, but the old implementation ran every query to
// completion first. With one worker (fully sequential) and the bad id
// first, no query after the failure may reach the closure cache.
func TestBatchFailFastAbortsRemaining(t *testing.T) {
	e, r, views := phyloEngine(t)
	ids := []string{"no-such-data", "d447", "d413", "d408", "d311"}
	_, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"], ids, 1)
	if !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("err = %v, want ErrUnknownData", err)
	}
	if !strings.Contains(err.Error(), "batch query 0 (no-such-data)") {
		t.Fatalf("error does not name the failing query: %v", err)
	}
	c := e.Warehouse().CacheCounters()
	// Exactly one lookup happened: the failing one. The four good queries
	// were cancelled, not computed.
	if lookups := c.Hits + c.Misses + c.SharedWaits; lookups != 1 {
		t.Fatalf("%d closure lookups after early failure, want 1 (wasted work): %+v", lookups, c)
	}
}

// TestBatchFailFastReportsFirstGenuineError: with the failure in the
// middle, earlier successes complete, the failure is reported under its own
// index, and induced cancellations are not misreported as the batch error.
func TestBatchFailFastReportsFirstGenuineError(t *testing.T) {
	e, r, views := phyloEngine(t)
	ids := []string{"d447", "d413", "bogus", "d408", "d311", "d352"}
	_, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["joe"], ids, 1)
	if !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("err = %v, want ErrUnknownData", err)
	}
	if !strings.Contains(err.Error(), "batch query 2 (bogus)") {
		t.Fatalf("wrong query blamed: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("induced cancellation leaked into the batch error: %v", err)
	}
}

// TestBatchCallerCancellationStillReported: the fail-fast rewrite must not
// swallow a cancellation the caller issued — that still surfaces as a
// context error, as the pre-existing cancellation test expects.
func TestBatchCallerCancellationStillReported(t *testing.T) {
	e, r, views := phyloEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.DeepProvenanceBatch(ctx, r.ID(), views["admin"], []string{"d447", "d413"}, 2)
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
	if s.Histograms["query.closure_compute_ns"].Count != 1 {
		t.Fatal("compute histogram must record misses only")
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

// TestBatchMetrics: ServeConcurrently records batch size and the clamped
// worker count.
func TestBatchMetrics(t *testing.T) {
	e, r, views := phyloEngine(t)
	reg := obs.NewRegistry()
	e.AttachMetrics(reg)
	queries := make([]Query, 6)
	for i, d := range []string{"d447", "d413", "d408", "d311", "d352", "d300"} {
		queries[i] = Query{RunID: r.ID(), View: views["admin"], Data: d}
	}
	e.ServeConcurrently(context.Background(), queries, 64) // clamped to len(queries)
	s := reg.Snapshot()
	if s.Counters["batch.count"] != 1 {
		t.Fatalf("batch.count = %d", s.Counters["batch.count"])
	}
	if s.Histograms["batch.size"].Max != 6 {
		t.Fatalf("batch.size max = %d, want 6", s.Histograms["batch.size"].Max)
	}
	if s.Histograms["batch.workers"].Max != 6 {
		t.Fatalf("batch.workers max = %d, want clamped 6", s.Histograms["batch.workers"].Max)
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
