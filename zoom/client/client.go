// Package client is the typed HTTP client for the zoom provenance
// service — the one place the wire shapes of /v1/query, /v1/batch,
// /v1/runs and /v1/stats are spelled as Go structs outside the server.
// Both halves of the cluster use it: the router's scatter-gather and
// health checks speak through a Client per worker, and the S1 benchmark
// driver uses it as the load generator. It is deliberately dependency-
// free (net/http only) so external tooling can import it without pulling
// in the engine.
//
// Every request is bounded by the client timeout (or the caller's
// context, whichever ends first), reuses pooled keep-alive connections,
// and can carry an explicit trace id in X-Zoom-Trace-Id — the server
// adopts a valid inbound id, which is how one id follows a query through
// the router onto a worker.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// TraceIDHeader is the header carrying the request/response trace id.
const TraceIDHeader = "X-Zoom-Trace-Id"

// TraceHeader carries a traced request's span tree (?trace=1) on the
// response, as JSON in printable ASCII; a router's holds the worker's under
// the replica attempt that answered. No answer body carries a tree.
const TraceHeader = "X-Zoom-Trace"

// GenerationHeader carries the /readyz Generation of the warehouse that
// computed an answer, so a router drops a restarted worker's cached answers
// as soon as the new instance answers anything.
const GenerationHeader = "X-Zoom-Generation"

// ParentSpanHeader carries the router-side parent span reference on a
// forwarded request: the router stamps each replica attempt's span
// reference here, and the worker tags its root span with the (sanitized)
// value, so a stitched trace shows exactly which router attempt a worker
// subtree answers. Workers accept at most 64 bytes of [A-Za-z0-9._-];
// anything else is dropped.
const ParentSpanHeader = "X-Zoom-Parent-Span"

// DefaultTimeout bounds a request when Options.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// Options tune a Client.
type Options struct {
	// Timeout bounds each request end-to-end (connect, send, wait, read).
	// Zero selects DefaultTimeout; negative means no timeout (the
	// caller's context is then the only bound).
	Timeout time.Duration
	// Transport overrides the HTTP transport (tests, shared pools). The
	// default keeps up to 32 idle connections per host.
	Transport http.RoundTripper
}

// Client talks to one zoom server (a worker or a router) at a base URL.
// It is safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	timeout time.Duration
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
func New(base string, opts Options) *Client {
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	rt := opts.Transport
	if rt == nil {
		rt = &http.Transport{
			MaxIdleConns:        32,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    &http.Client{Transport: rt},
		timeout: timeout,
	}
}

// Base returns the client's base URL.
func (c *Client) Base() string { return c.base }

// Error is a non-2xx response decoded from the server's uniform JSON
// error shape, with the HTTP status and the response's trace id attached.
type Error struct {
	Status  int    // HTTP status code
	Message string `json:"error"`
	TraceID string `json:"-"` // from TraceIDHeader
}

func (e *Error) Error() string {
	return fmt.Sprintf("zoom: server status %d: %s", e.Status, e.Message)
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Run      string   `json:"run"`
	Data     string   `json:"data"`
	Kind     string   `json:"kind,omitempty"` // deep (default), immediate, derived
	View     string   `json:"view,omitempty"`
	Relevant []string `json:"relevant,omitempty"`
	// TraceID, when a valid 16-hex id, is sent in X-Zoom-Trace-Id and
	// adopted by the server. Not part of the JSON body.
	TraceID string `json:"-"`
	// Trace asks for the span tree (?trace=1), which fills the response's
	// Trace from TraceHeader; the answer is the untraced one byte for
	// byte. Not part of the JSON body.
	Trace bool `json:"-"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Run      string   `json:"run"`
	Data     []string `json:"data"`
	View     string   `json:"view,omitempty"`
	Relevant []string `json:"relevant,omitempty"`
	TraceID  string   `json:"-"`
	Trace    bool     `json:"-"`
}

// Execution mirrors the server's execution DTO.
type Execution struct {
	ID        string   `json:"id"`
	Composite string   `json:"composite"`
	Steps     []string `json:"steps"`
	Inputs    []string `json:"inputs,omitempty"`
	Outputs   []string `json:"outputs,omitempty"`
}

// Edge mirrors the server's edge DTO.
type Edge struct {
	From string   `json:"from"`
	To   string   `json:"to"`
	Data []string `json:"data"`
}

// Result mirrors the server's provenance result DTO.
type Result struct {
	Root       string            `json:"root"`
	External   bool              `json:"external,omitempty"`
	Metadata   map[string]string `json:"metadata,omitempty"`
	Executions []Execution       `json:"executions"`
	Data       []string          `json:"data"`
	Edges      []Edge            `json:"edges"`
}

// QueryResponse is a POST /v1/query answer. Every response type here
// carries the response's trace id, which the server sends in TraceIDHeader
// and not in the body; a traced query or batch also carries its span tree,
// from TraceHeader.
type QueryResponse struct {
	TraceID   string          `json:"-"`
	Run       string          `json:"run"`
	Data      string          `json:"data"`
	Kind      string          `json:"kind"`
	Result    *Result         `json:"result,omitempty"`
	Execution *Execution      `json:"execution,omitempty"`
	Trace     json.RawMessage `json:"-"`
}

// BatchResponse is a POST /v1/batch answer.
type BatchResponse struct {
	TraceID string          `json:"-"`
	Run     string          `json:"run"`
	Count   int             `json:"count"`
	Results []*Result       `json:"results"`
	Trace   json.RawMessage `json:"-"`
}

// RunInfo is one row of GET /v1/runs.
type RunInfo struct {
	ID    string `json:"id"`
	Spec  string `json:"spec"`
	Steps int    `json:"steps"`
	Edges int    `json:"edges"`
}

// RunsResponse is the body of GET /v1/runs — runs sorted by id, with an
// explicit count. Field order matches the server (and the router's merge)
// so re-encoding is byte-stable.
type RunsResponse struct {
	TraceID string    `json:"-"`
	Count   int       `json:"count"`
	Runs    []RunInfo `json:"runs"`
}

// StatsResponse is the body of GET /v1/stats; the stats document is kept
// raw (its shape belongs to the warehouse and grows PR over PR).
type StatsResponse struct {
	TraceID string          `json:"-"`
	Stats   json.RawMessage `json:"stats"`
}

// ClusterWorkerStats is one worker's raw stats document inside a
// ClusterStatsResponse, tagged with its shard index and address.
type ClusterWorkerStats struct {
	Shard int             `json:"shard"`
	Addr  string          `json:"addr"`
	Stats json.RawMessage `json:"stats"`
}

// ClusterStatsResponse is the body of GET /v1/cluster/stats on a router:
// the router's own registry snapshot, the merged worker registries
// (per-shard series under "shard.<k>." prefixes plus unprefixed
// fleet-wide totals), and each worker's raw stats document. The snapshot
// documents are kept raw so this package stays dependency-free; decode
// them into repro/internal/obs.Snapshot (or any structurally-matching
// type) as needed.
type ClusterStatsResponse struct {
	TraceID      string               `json:"-"`
	ShardsTotal  int                  `json:"shards_total"`
	ShardsOK     int                  `json:"shards_ok"`
	Router       json.RawMessage      `json:"router"`
	Cluster      json.RawMessage      `json:"cluster"`
	Shards       []ClusterWorkerStats `json:"shards"`
	Partial      bool                 `json:"partial,omitempty"`
	FailedShards json.RawMessage      `json:"failed_shards,omitempty"`
}

// ClusterStats fetches a router's aggregated cluster statistics. Only
// routers serve /v1/cluster/stats; against a plain worker this returns a
// 404 *Error.
func (c *Client) ClusterStats(ctx context.Context) (*ClusterStatsResponse, error) {
	var out ClusterStatsResponse
	if err := c.getJSON(ctx, "/v1/cluster/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Readyz is the body of GET /readyz. Generation is an opaque warehouse
// generation: it changes whenever the worker (re)installs an engine or
// restarts, and a router invalidates cached responses for the worker's
// shard when it observes a change. Zero means a pre-generation worker.
type Readyz struct {
	Ready      bool  `json:"ready"`
	RunsLoaded int   `json:"runs_loaded"`
	RunsTotal  int   `json:"runs_total"`
	Generation int64 `json:"generation,omitempty"`
}

// Query answers one provenance query.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	path := "/v1/query"
	if req.Trace {
		path += "?trace=1"
	}
	var out QueryResponse
	if err := c.postJSON(ctx, path, req.TraceID, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch answers many queries of one run/view in one request.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	path := "/v1/batch"
	if req.Trace {
		path += "?trace=1"
	}
	var out BatchResponse
	if err := c.postJSON(ctx, path, req.TraceID, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Runs lists the server's loaded runs, sorted by id.
func (c *Client) Runs(ctx context.Context) (*RunsResponse, error) {
	var out RunsResponse
	if err := c.getJSON(ctx, "/v1/runs", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the server's warehouse statistics.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.getJSON(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready polls GET /readyz. It returns the decoded body with no error for
// both the ready (200) and still-loading (503) cases; other statuses and
// transport failures are errors.
func (c *Client) Ready(ctx context.Context) (*Readyz, error) {
	ctx, cancel := c.bound(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, &Error{Status: resp.StatusCode, Message: "unexpected /readyz status"}
	}
	var out Readyz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("zoom: decode /readyz: %w", err)
	}
	return &out, nil
}

// bound derives the request context from the client timeout.
func (c *Client) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// drain discards and closes a response body so the connection returns to
// the keep-alive pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

func (c *Client) postJSON(ctx context.Context, path, traceID string, in any, out tracedResponse) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ctx, cancel := c.bound(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(TraceIDHeader, traceID)
	}
	return c.do(req, out)
}

func (c *Client) getJSON(ctx context.Context, path string, out tracedResponse) error {
	ctx, cancel := c.bound(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// tracedResponse is a response type that takes the trace id, and the span
// tree of a traced request, of the response it was decoded from.
type tracedResponse interface{ setTrace(string, json.RawMessage) }

func (r *QueryResponse) setTrace(id string, tree json.RawMessage)     { r.TraceID, r.Trace = id, tree }
func (r *BatchResponse) setTrace(id string, tree json.RawMessage)     { r.TraceID, r.Trace = id, tree }
func (r *RunsResponse) setTrace(id string, _ json.RawMessage)         { r.TraceID = id }
func (r *StatsResponse) setTrace(id string, _ json.RawMessage)        { r.TraceID = id }
func (r *ClusterStatsResponse) setTrace(id string, _ json.RawMessage) { r.TraceID = id }

// do sends the request and decodes a 2xx JSON body into out, or a non-2xx
// body into an *Error; either takes the trace id from TraceIDHeader, and a
// 2xx the span tree from TraceHeader.
func (c *Client) do(req *http.Request, out tracedResponse) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("zoom: read response: %w", err)
	}
	traceID := resp.Header.Get(TraceIDHeader)
	if resp.StatusCode/100 != 2 {
		e := &Error{Status: resp.StatusCode, TraceID: traceID}
		if jerr := json.Unmarshal(body, e); jerr != nil || e.Message == "" {
			e.Message = strings.TrimSpace(string(body))
		}
		return e
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("zoom: decode %s: %w", req.URL.Path, err)
	}
	var tree json.RawMessage
	if v := resp.Header.Get(TraceHeader); v != "" {
		tree = json.RawMessage(v)
	}
	out.setTrace(traceID, tree)
	return nil
}
