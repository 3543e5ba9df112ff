package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanTree builds a small two-level tree and checks the snapshot
// has the right shape, plausible timings, and a well-formed id.
func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("POST /v1/query")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(tr.ID()) {
		t.Fatalf("trace id %q is not 16 hex digits", tr.ID())
	}
	ctx := tr.Context(context.Background())

	lctx, lookup := StartSpan(ctx, "query.lookup")
	if lookup == nil {
		t.Fatal("StartSpan on a traced context returned nil")
	}
	_, compute := StartSpan(lctx, "closure.compute")
	time.Sleep(time.Millisecond)
	compute.End()
	lookup.End()
	_, project := StartSpan(ctx, "query.project")
	project.End()

	root := tr.Finish()
	if root.Name != "POST /v1/query" {
		t.Fatalf("root name %q", root.Name)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2: %+v", len(root.Children), root.Children)
	}
	l := root.Find("query.lookup")
	if l == nil || len(l.Children) != 1 || l.Children[0].Name != "closure.compute" {
		t.Fatalf("lookup subtree wrong: %+v", l)
	}
	c := root.Find("closure.compute")
	if c.DurNs < int64(time.Millisecond) {
		t.Fatalf("compute span %dns, slept 1ms", c.DurNs)
	}
	// Containment: a child starts no earlier and lasts no longer than the
	// span that contains it.
	if c.StartNs < l.StartNs || c.StartNs+c.DurNs > l.StartNs+l.DurNs {
		t.Fatalf("compute [%d,+%d] escapes lookup [%d,+%d]", c.StartNs, c.DurNs, l.StartNs, l.DurNs)
	}
	if l.DurNs > root.DurNs {
		t.Fatalf("lookup (%dns) outlasts root (%dns)", l.DurNs, root.DurNs)
	}
	if root.Find("no.such.span") != nil {
		t.Fatal("Find invented a span")
	}

	// The tree must be JSON-shaped for the X-Zoom-Trace header.
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanNode
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Find("closure.compute") == nil {
		t.Fatalf("tree did not survive JSON round-trip: %s", b)
	}
}

// TestTraceNilSafety: every operation on the untraced path — nil spans,
// nil traces, contexts without a trace — must be a safe no-op, because
// instrumented code calls them unconditionally.
func TestTraceNilSafety(t *testing.T) {
	ctx := context.Background()
	if s := SpanFromContext(ctx); s != nil {
		t.Fatalf("untraced context yielded span %v", s)
	}
	ctx2, sp := StartSpan(ctx, "stage")
	if sp != nil {
		t.Fatal("StartSpan on untraced context returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan on untraced context replaced the context")
	}
	// All nil-receiver methods.
	sp.End()
	if c := sp.StartChild("x"); c != nil {
		t.Fatal("nil span spawned a child")
	}
	var tr *Trace
	if got := tr.Snapshot(); got.Name != "" || len(got.Children) != 0 {
		t.Fatalf("nil trace snapshot %+v", got)
	}
	if got := tr.Context(ctx); got != ctx {
		t.Fatal("nil trace changed the context")
	}
}

// TestTraceConcurrentChildren mirrors the batch worker pattern: many
// goroutines starting and ending sibling spans of the same parent (run
// under -race in CI). 16 x 30 x 2 spans stay under MaxSpans.
func TestTraceConcurrentChildren(t *testing.T) {
	tr := NewTrace("POST /v1/batch")
	ctx := tr.Context(context.Background())
	const workers, iters = 16, 30
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				qctx, sp := StartSpan(ctx, "batch.query")
				_, inner := StartSpan(qctx, "query.lookup")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	root := tr.Finish()
	if got := len(root.Children); got != workers*iters {
		t.Fatalf("%d children recorded, want %d", got, workers*iters)
	}
	for _, c := range root.Children {
		if len(c.Children) != 1 || c.Children[0].Name != "query.lookup" {
			t.Fatalf("worker span lost its child: %+v", c)
		}
	}
}

// TestTraceSnapshotWhileRunning: Snapshot on a live trace reports running
// spans with their duration so far, without ending them.
func TestTraceSnapshotWhileRunning(t *testing.T) {
	tr := NewTrace("r")
	ctx := tr.Context(context.Background())
	_, sp := StartSpan(ctx, "slow")
	time.Sleep(time.Millisecond)
	snap := tr.Snapshot()
	n := snap.Find("slow")
	if n == nil || n.DurNs < int64(time.Millisecond) {
		t.Fatalf("running span reported %+v", n)
	}
	sp.End()
	final := tr.Finish()
	done := final.Find("slow")
	if done.DurNs < n.DurNs {
		t.Fatalf("final duration %d shrank below snapshot %d", done.DurNs, n.DurNs)
	}
}

// countSpans counts the nodes of a tree.
func countSpans(n *SpanNode) int {
	c := 1
	for i := range n.Children {
		c += countSpans(&n.Children[i])
	}
	return c
}

// TestTraceSpanBound: a trace records at most MaxSpans spans, root
// included; every StartSpan past that returns the context unchanged and a
// nil span, and the snapshot's root counts the drops.
func TestTraceSpanBound(t *testing.T) {
	tr := NewTrace("POST /v1/batch")
	ctx := tr.Context(context.Background())
	for i := 0; i < 2*MaxSpans; i++ {
		qctx, sp := StartSpan(ctx, "batch.query")
		if sp == nil && qctx != ctx {
			t.Fatal("a dropped span replaced the context")
		}
		_, inner := StartSpan(qctx, "query.lookup")
		inner.End()
		sp.End()
	}
	root := tr.Finish()
	if got := countSpans(&root); got != MaxSpans {
		t.Fatalf("trace holds %d spans, want the bound %d", got, MaxSpans)
	}
	// Every one of the 4*MaxSpans starts had a live parent; the first
	// MaxSpans-1 were recorded.
	if got, want := root.Tags["dropped_spans"], strconv.Itoa(4*MaxSpans-(MaxSpans-1)); got != want {
		t.Fatalf("dropped_spans = %q, want %q", got, want)
	}
}

// TestHeaderValue: the header encoding of a tree whose names and tags hold
// any strings is printable ASCII that decodes to what json.Marshal's
// encoding does, and past MaxHeaderTree it is the root alone, tagged with
// the full encoding's length.
func TestHeaderValue(t *testing.T) {
	n := SpanNode{Name: "POST /v1/batch", DurNs: 7, Tags: map[string]string{"parent_span": "0123456789abcdef.a0"}}
	for _, s := range []string{"d447", "\x7f", "é", "\U0001F600", "\x00\x1f", "\u2028", "\xff", `"\`, "<&>"} {
		n.Children = append(n.Children, SpanNode{Name: "batch.query " + s, Tags: map[string]string{s: s}})
	}
	v := n.HeaderValue()
	if i := strings.IndexFunc(v, func(r rune) bool { return r < 0x20 || r > 0x7e }); i >= 0 {
		t.Fatalf("byte %d of %q is not printable ASCII", i, v)
	}
	if !strings.Contains(v, "batch.query \\ud83d\\ude00") {
		t.Fatalf("U+1F600 is not written as a surrogate pair: %s", v)
	}
	raw, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var got, want SpanNode
	if err := json.Unmarshal([]byte(v), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("header tree decodes to\n%+v\nwant\n%+v", got, want)
	}

	big := SpanNode{Name: "POST /v1/batch", DurNs: 7, Children: []SpanNode{{Name: strings.Repeat("é", MaxHeaderTree/2)}}}
	v = big.HeaderValue()
	var cut SpanNode
	if err := json.Unmarshal([]byte(v), &cut); err != nil || len(v) > MaxHeaderTree {
		t.Fatalf("oversized tree: %d bytes, %v", len(v), err)
	}
	if full, _ := strconv.Atoi(cut.Tags["truncated"]); full <= MaxHeaderTree || len(cut.Children) != 0 || cut.Name != big.Name || cut.DurNs != 7 {
		t.Fatalf("oversized tree became %+v, want its root alone tagged truncated=<full length>", cut)
	}
}

// TestSpanEndTwice: a double End keeps the first end time.
func TestSpanEndTwice(t *testing.T) {
	tr := NewTrace("r")
	sp := tr.Root().StartChild("s")
	sp.End()
	snap1 := tr.Snapshot()
	d1 := snap1.Find("s").DurNs
	time.Sleep(2 * time.Millisecond)
	sp.End()
	snap2 := tr.Snapshot()
	if d2 := snap2.Find("s").DurNs; d2 != d1 {
		t.Fatalf("second End moved duration %d -> %d", d1, d2)
	}
}

// TestTraceWithID: a valid supplied id is adopted verbatim; anything else
// (wrong length, upper case, non-hex, empty) is replaced by a fresh one.
func TestTraceWithID(t *testing.T) {
	const id = "0123456789abcdef"
	if got := NewTraceWithID("r", id).ID(); got != id {
		t.Fatalf("valid id not adopted: got %q", got)
	}
	for _, bad := range []string{"", "short", "0123456789ABCDEF", "0123456789abcdeg",
		"0123456789abcdef0", "xxxxxxxxxxxxxxxx"} {
		tr := NewTraceWithID("r", bad)
		if tr.ID() == bad {
			t.Fatalf("invalid id %q adopted", bad)
		}
		if !ValidTraceID(tr.ID()) {
			t.Fatalf("replacement id %q is not valid", tr.ID())
		}
	}
}

// TestValidTraceID pins the 16-lower-hex shape.
func TestValidTraceID(t *testing.T) {
	if !ValidTraceID(NewTrace("r").ID()) {
		t.Fatal("fresh trace id does not validate")
	}
	for id, want := range map[string]bool{
		"0123456789abcdef": true,
		"ffffffffffffffff": true,
		"0123456789abcde":  false,
		"0123456789abcdeF": false,
		"":                 false,
	} {
		if got := ValidTraceID(id); got != want {
			t.Errorf("ValidTraceID(%q) = %v, want %v", id, got, want)
		}
	}
}
