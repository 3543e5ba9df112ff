// Request-scoped tracing: a lightweight span tree carried through a
// context.Context. Where the Registry aggregates (histograms answer "how
// slow are queries lately?"), a Trace explains one request ("why was THIS
// query slow?"): every stage the request passed through — engine lookup and
// projection, closure compute or singleflight wait, each batch member's
// query — records a span, and the finished tree is sent in the X-Zoom-Trace
// response header when the client asks (?trace=1), named by the
// X-Zoom-Trace-Id header, and kept in the server's slow-query log. No answer
// body carries it.
//
// The design constraint matches the rest of the package: code that is not
// being traced must pay next to nothing. A context without a trace yields a
// nil *Span from SpanFromContext/StartSpan, and every Span method is safe
// (and a no-op) on a nil receiver, so instrumented paths hold plain
// possibly-nil span values and never branch on "is tracing on" beyond the
// one context lookup at the request boundary.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf16"
)

// MaxSpans bounds the spans one trace records, its root included, so a batch
// near the request-body cap cannot hold ~400k spans until it answers. Past it
// StartChild returns nil and counts the drop (the root's dropped_spans tag).
const MaxSpans = 1024

// Trace is the span tree of one request. Create one per request at the
// boundary (the HTTP handler), derive a context with Context, and hand that
// context down; instrumented stages add child spans via StartSpan. A Trace
// is safe for concurrent use: several goroutines may start, tag and end
// spans of one tree at once.
type Trace struct {
	id      string
	t0      time.Time
	root    *Span
	spans   atomic.Int32 // children started, counted against MaxSpans
	dropped atomic.Int32 // children refused past MaxSpans
}

// traceSeq de-duplicates fallback trace ids if crypto/rand ever fails.
var traceSeq atomic.Uint64

// newTraceID returns a 16-hex-digit random id.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy (essentially impossible): fall back to a process-unique
		// counter so ids stay distinct, if predictable.
		n := traceSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewTrace starts a trace whose root span has the given name (conventionally
// the request route, e.g. "POST /v1/query"). The root span is already
// started; Finish ends it.
func NewTrace(name string) *Trace {
	return NewTraceWithID(name, "")
}

// NewTraceWithID is NewTrace with a caller-supplied trace id — how a
// routed request keeps one id end-to-end: the router mints the id, sends
// it in X-Zoom-Trace-Id, and the worker adopts it instead of minting its
// own, so both slow logs and both responses name the same trace. An id
// that fails ValidTraceID (including "") is replaced by a fresh random
// one, so a malicious or sloppy client cannot inject arbitrary strings
// into logs and headers.
func NewTraceWithID(name, id string) *Trace {
	if !ValidTraceID(id) {
		id = newTraceID()
	}
	t := &Trace{id: id, t0: time.Now()}
	t.root = &Span{tr: t, name: name}
	return t
}

// ValidTraceID reports whether id is a well-formed trace id: exactly 16
// lower-case hex digits, the shape newTraceID produces.
func ValidTraceID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// MaxHeaderToken bounds SanitizeHeaderToken's accepted length.
const MaxHeaderToken = 64

// SanitizeHeaderToken validates an inbound correlation token (the
// X-Zoom-Parent-Span header a router sends with a forwarded request): at
// most MaxHeaderToken bytes, drawn entirely from [a-zA-Z0-9._-]. Anything
// else — control characters, quotes, an over-long value — returns "", so
// a hostile header can never reach a log line, a span tag, or a response
// body. The trace-id header has its own, stricter gate (ValidTraceID).
func SanitizeHeaderToken(s string) string {
	if len(s) == 0 || len(s) > MaxHeaderToken {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}

// ID returns the trace id (16 hex digits) — the value of X-Zoom-Trace-Id.
func (t *Trace) ID() string { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Context returns a context carrying the trace's root span: StartSpan on
// the returned context creates children of the root.
func (t *Trace) Context(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, t.root)
}

// Finish ends the root span and returns the completed tree. Call it after
// every stage has ended (all workers joined).
func (t *Trace) Finish() SpanNode {
	t.root.End()
	return t.Snapshot()
}

// Snapshot returns the current tree without ending anything; spans still
// running report their duration as of now, which is how a response header
// carries the tree of a request still being answered. A trace that reached
// MaxSpans has its root tagged dropped_spans=<n>.
func (t *Trace) Snapshot() SpanNode {
	if t == nil {
		return SpanNode{}
	}
	n := t.root.snapshot()
	if d := t.dropped.Load(); d > 0 {
		if n.Tags == nil {
			n.Tags = make(map[string]string, 1)
		}
		n.Tags["dropped_spans"] = strconv.Itoa(int(d))
	}
	return n
}

// Span is one timed stage of a trace. All methods are safe (and no-ops) on
// a nil receiver — the untraced case.
type Span struct {
	tr      *Trace
	name    string
	startNs int64 // since the trace's t0; the root starts at 0

	mu       sync.Mutex
	endNs    int64 // 0 while running
	children []*Span
	tags     map[string]string
	adopted  []SpanNode // imported subtrees (see Adopt)
}

// SetTag annotates the span with a key/value pair (replica address, cache
// outcome, shard index). Safe (and a no-op) on a nil receiver; safe for
// concurrent use with snapshots.
func (s *Span) SetTag(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.tags == nil {
		s.tags = make(map[string]string, 4)
	}
	s.tags[key] = value
	s.mu.Unlock()
}

// Adopt grafts an imported, already-finished span tree (a worker's span
// tree decoded from its X-Zoom-Trace response header) under s as a child
// subtree. The imported tree's StartNs values are relative to ITS trace's
// start; Adopt rebases them onto this trace's timeline by adding s's own
// start offset, so the child renders inside its parent on one shared
// timeline. (Clock skew between the two processes is unknowable without
// synchronized clocks; the convention is that the adopted root begins when
// the adopting span does.) Safe (and a no-op) on a nil receiver.
func (s *Span) Adopt(node SpanNode) {
	if s == nil {
		return
	}
	rebase(&node, s.startNs)
	s.mu.Lock()
	s.adopted = append(s.adopted, node)
	s.mu.Unlock()
}

// rebase shifts every StartNs in the tree by off.
func rebase(n *SpanNode, off int64) {
	n.StartNs += off
	for i := range n.Children {
		rebase(&n.Children[i], off)
	}
}

// StartChild starts a named child span. Safe for concurrent use by sibling
// workers; returns nil on a nil receiver and once the trace holds MaxSpans.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	if s.tr.spans.Add(1) >= MaxSpans { // the root is the first span
		s.tr.dropped.Add(1)
		return nil
	}
	c := &Span{tr: s.tr, name: name, startNs: time.Since(s.tr.t0).Nanoseconds()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.mu.Lock()
	if s.endNs == 0 {
		s.endNs = now
	}
	s.mu.Unlock()
}

// snapshot copies the subtree rooted at s.
func (s *Span) snapshot() SpanNode {
	s.mu.Lock()
	end := s.endNs
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	var tags map[string]string
	if len(s.tags) > 0 {
		tags = make(map[string]string, len(s.tags))
		for k, v := range s.tags {
			tags[k] = v
		}
	}
	adopted := make([]SpanNode, len(s.adopted))
	copy(adopted, s.adopted)
	s.mu.Unlock()
	if end == 0 {
		end = time.Since(s.tr.t0).Nanoseconds()
	}
	n := SpanNode{Name: s.name, StartNs: s.startNs, DurNs: end - s.startNs, Tags: tags}
	if n.DurNs < 0 {
		n.DurNs = 0
	}
	for _, c := range kids {
		n.Children = append(n.Children, c.snapshot())
	}
	n.Children = append(n.Children, adopted...)
	return n
}

// SpanNode is one span in a snapshotted trace tree, shaped for JSON.
// StartNs is relative to the trace start, so a rendering can lay spans out
// on one shared timeline.
type SpanNode struct {
	Name     string            `json:"name"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	Tags     map[string]string `json:"tags,omitempty"`
	Children []SpanNode        `json:"children,omitempty"`
}

// Find returns the first node with the given name in a depth-first walk of
// the subtree (including n itself), or nil.
func (n *SpanNode) Find(name string) *SpanNode {
	if n.Name == name {
		return n
	}
	for i := range n.Children {
		if f := n.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// MaxHeaderTree bounds the encoding HeaderValue returns (256 KiB).
const MaxHeaderTree = 256 << 10

// HeaderValue encodes the tree for the X-Zoom-Trace response header: JSON
// with every rune outside printable ASCII as a \u escape (a surrogate pair
// above U+FFFF). Span names and tags carry request strings, and a raw DEL or
// non-ASCII byte would make Go's client reject the whole response; escaped,
// any tree is a valid header value, and json.Unmarshal reads it back. An
// encoding over MaxHeaderTree is replaced by the root alone, tagged
// truncated=<bytes of the full encoding>.
func (n SpanNode) HeaderValue() string {
	v := asciiJSON(n)
	if len(v) <= MaxHeaderTree {
		return v
	}
	return asciiJSON(SpanNode{Name: n.Name, StartNs: n.StartNs, DurNs: n.DurNs,
		Tags: map[string]string{"truncated": strconv.Itoa(len(v))}})
}

// asciiJSON marshals n and writes every rune outside 0x20-0x7e as a \u
// escape. Only strings hold such runes (json.Marshal escapes control
// characters itself and writes invalid UTF-8 as U+FFFD), so the text still
// decodes to n.
func asciiJSON(n SpanNode) string {
	raw, _ := json.Marshal(n) // strings, integers and a string map always marshal
	var b strings.Builder
	b.Grow(len(raw))
	for _, r := range string(raw) {
		switch {
		case r >= 0x20 && r < 0x7f:
			b.WriteByte(byte(r))
		case r > 0xffff:
			r1, r2 := utf16.EncodeRune(r)
			fmt.Fprintf(&b, `\u%04x\u%04x`, r1, r2)
		default:
			fmt.Fprintf(&b, `\u%04x`, r)
		}
	}
	return b.String()
}

// spanCtxKey carries the current span through a context.
type spanCtxKey struct{}

// SpanFromContext returns the context's current span, or nil when the
// request is not being traced.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's current span and returns a
// context carrying the child. On an untraced context, or once the trace
// holds MaxSpans, it returns the context unchanged and a nil span — one
// interface lookup, no allocation — which is what keeps disabled tracing
// off the hot path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	c := SpanFromContext(ctx).StartChild(name)
	if c == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanCtxKey{}, c), c
}
