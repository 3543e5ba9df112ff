package server

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/composite"
	"repro/internal/obs"
	"repro/internal/provenance"
)

// The answer encoder. /v1/query and /v1/batch bodies are appended straight
// from the engine's own types into one pooled buffer: no intermediate
// response structs, no reflection, no indentation. The bytes are exactly
// json.Marshal of the documented response shapes (spelled as structs in
// encode_test.go, where they are the encoder's oracle) plus the newline
// json.Encoder writes: same field order, same omitempty behaviour, same
// HTML-safe escaping. The two values that are rare and small — an external
// root's metadata and the ?trace=1 span tree — are marshalled reflectively
// in place.

// queryAnswer is what handleQuery hands the encoder: the request's echo and
// pointers to whatever the engine returned for its kind.
type queryAnswer struct {
	traceID, run, data, kind string
	// deep is set for deep queries only; it carries outcome and the stage
	// timings.
	deep      *provenance.QueryTrace
	result    *provenance.Result
	execution *composite.Execution
	spans     *obs.SpanNode // ?trace=1 only
}

func appendQueryResponse(dst []byte, a *queryAnswer) ([]byte, error) {
	dst = append(dst, `{"trace_id":`...)
	dst = appendString(dst, a.traceID)
	dst = append(dst, `,"run":`...)
	dst = appendString(dst, a.run)
	dst = append(dst, `,"data":`...)
	dst = appendString(dst, a.data)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, a.kind)
	if qt := a.deep; qt != nil {
		if qt.Outcome != "" {
			dst = append(dst, `,"outcome":`...)
			dst = appendString(dst, qt.Outcome)
		}
		dst = append(dst, `,"timing":{"lookup_ns":`...)
		dst = strconv.AppendInt(dst, qt.LookupNs, 10)
		if qt.ComputeNs != 0 {
			dst = append(dst, `,"compute_ns":`...)
			dst = strconv.AppendInt(dst, qt.ComputeNs, 10)
		}
		dst = append(dst, `,"project_ns":`...)
		dst = strconv.AppendInt(dst, qt.ProjectNs, 10)
		dst = append(dst, `,"total_ns":`...)
		dst = strconv.AppendInt(dst, qt.TotalNs, 10)
		dst = append(dst, '}')
	}
	if a.result != nil {
		dst = append(dst, `,"result":`...)
		dst = AppendResult(dst, a.result)
	}
	if a.execution != nil {
		dst = append(dst, `,"execution":`...)
		dst = appendExecution(dst, a.execution)
	}
	return appendSpansAndClose(dst, a.spans)
}

func appendBatchResponse(dst []byte, traceID, run string, results []*provenance.Result, spans *obs.SpanNode) ([]byte, error) {
	dst = append(dst, `{"trace_id":`...)
	dst = appendString(dst, traceID)
	dst = append(dst, `,"run":`...)
	dst = appendString(dst, run)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(results)), 10)
	dst = append(dst, `,"results":[`...)
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if res == nil {
			dst = append(dst, "null"...)
		} else {
			dst = AppendResult(dst, res)
		}
	}
	dst = append(dst, ']')
	return appendSpansAndClose(dst, spans)
}

// appendSpansAndClose ends a response document: the optional inline span
// tree, the closing brace, and json.Encoder's trailing newline.
func appendSpansAndClose(dst []byte, spans *obs.SpanNode) ([]byte, error) {
	if spans != nil {
		raw, err := json.Marshal(spans)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, raw...)
	}
	return append(dst, '}', '\n'), nil
}

// AppendResult appends one provenance result as the "result" object of the
// wire format. Executions and edges are always arrays, even when empty.
func AppendResult(dst []byte, res *provenance.Result) []byte {
	dst = append(dst, `{"root":`...)
	dst = appendString(dst, res.Root)
	if res.External {
		dst = append(dst, `,"external":true`...)
	}
	if len(res.Metadata) > 0 {
		raw, _ := json.Marshal(res.Metadata) // a map of strings always marshals
		dst = append(dst, `,"metadata":`...)
		dst = append(dst, raw...)
	}
	dst = append(dst, `,"executions":[`...)
	for i, x := range res.Executions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendExecution(dst, x)
	}
	dst = append(dst, `],"data":`...)
	dst = appendStrings(dst, res.Data)
	dst = append(dst, `,"edges":[`...)
	for i := range res.Edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		e := &res.Edges[i]
		dst = append(dst, `{"from":`...)
		dst = appendString(dst, e.From)
		dst = append(dst, `,"to":`...)
		dst = appendString(dst, e.To)
		dst = append(dst, `,"data":`...)
		dst = appendStrings(dst, e.Data)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

func appendExecution(dst []byte, x *composite.Execution) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, x.ID)
	dst = append(dst, `,"composite":`...)
	dst = appendString(dst, x.Composite)
	dst = append(dst, `,"steps":`...)
	dst = appendStrings(dst, x.Steps)
	if len(x.Inputs) > 0 {
		dst = append(dst, `,"inputs":`...)
		dst = appendStrings(dst, x.Inputs)
	}
	if len(x.Outputs) > 0 {
		dst = append(dst, `,"outputs":`...)
		dst = appendStrings(dst, x.Outputs)
	}
	return append(dst, '}')
}

// appendStrings appends a JSON string array; a nil slice is null, as in
// encoding/json.
func appendStrings(dst []byte, xs []string) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string. Ids are almost always printable
// ASCII with nothing to escape and are copied between quotes; a string with
// a quote, backslash, control byte, <, >, & or any non-ASCII byte (U+2028/9
// and invalid UTF-8 among them) is handed to encoding/json, so its escaping
// rules are never restated here.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(dst, raw...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain marks the bytes encoding/json copies unchanged wherever they stand.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// maxPooledBuf is the largest encode buffer returned to the pool: it covers
// the biggest answers the benchmark's corpora produce (~310 KB) without
// letting one outsized batch pin megabytes per pooled buffer.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}
