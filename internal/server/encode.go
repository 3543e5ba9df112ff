package server

import (
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/composite"
	"repro/internal/jsontok"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/run"
)

// The answer encoder. /v1/query and /v1/batch bodies are appended straight
// from the engine's own types into one pooled buffer: no intermediate
// response structs, no reflection, no indentation. A deep, derived or batch
// answer arrives in integers (provenance.Answer) and is written as literals
// and token copies: every name in it was escaped once, when its run's or its
// mapping's token table was built (run.Index.Tokens, composite.Projector),
// so no name is read here. The bytes are exactly json.Marshal of the
// documented response shapes (spelled as structs in encode_test.go, where
// they and the string-walking encoder this one replaced are its oracles)
// plus the newline json.Encoder writes: same field order, same omitempty
// behaviour, same HTML-safe escaping. The two values that are rare and small
// — an external root's metadata and the ?trace=1 span tree — are marshalled
// reflectively in place.

// queryAnswer is what handleQuery hands the encoder: the request's echo and
// pointers to whatever the engine returned for its kind. Nothing in it is
// per-request: the trace id travels in the X-Zoom-Trace-Id header and the
// stage timings in the span tree, so an untraced answer's bytes are a
// function of the request and the loaded warehouse alone.
type queryAnswer struct {
	run, data, kind string
	result          *provenance.Answer
	execution       *composite.Execution
	spans           *obs.SpanNode // ?trace=1 only
}

func appendQueryResponse(dst []byte, a *queryAnswer) ([]byte, error) {
	dst = append(dst, `{"run":`...)
	dst = jsontok.AppendString(dst, a.run)
	dst = append(dst, `,"data":`...)
	dst = jsontok.AppendString(dst, a.data)
	dst = append(dst, `,"kind":`...)
	dst = jsontok.AppendString(dst, a.kind)
	if a.result != nil {
		dst = append(dst, `,"result":`...)
		dst = AppendAnswer(dst, a.result)
	}
	if a.execution != nil {
		dst = append(dst, `,"execution":`...)
		dst = appendExecution(dst, a.execution)
	}
	return appendSpansAndClose(dst, a.spans)
}

func appendBatchResponse(dst []byte, run string, results []*provenance.Answer, spans *obs.SpanNode) ([]byte, error) {
	dst = append(dst, `{"run":`...)
	dst = jsontok.AppendString(dst, run)
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
			dst = AppendAnswer(dst, res)
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

// AppendAnswer appends one provenance answer as the "result" object of the
// wire format. Executions, data and edges are always arrays, even when empty.
func AppendAnswer(dst []byte, a *provenance.Answer) []byte {
	px := a.Projector
	tok := px.Index().Tokens()
	dst = append(dst, `{"root":`...)
	dst = jsontok.AppendString(dst, a.Root)
	if a.External {
		dst = append(dst, `,"external":true`...)
	}
	if len(a.Metadata) > 0 {
		raw, _ := json.Marshal(a.Metadata) // a map of strings always marshals
		dst = append(dst, `,"metadata":`...)
		dst = append(dst, raw...)
	}
	dst = append(dst, `,"executions":[`...)
	for i, ord := range a.Executions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendExecutionAt(dst, px, tok, ord)
	}
	dst = append(dst, `],"data":`...)
	dst = appendTokens(dst, &tok.Data, a.Data)
	dst = append(dst, `,"edges":[`...)
	for i, e := range a.Edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"from":`...)
		dst = append(dst, px.EndpointToken(e.From)...)
		dst = append(dst, `,"to":`...)
		dst = append(dst, px.EndpointToken(e.To)...)
		dst = append(dst, `,"data":`...)
		dst = appendTokens(dst, &tok.Data, a.DataOf(i))
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

// appendExecutionAt appends the execution at a mapping's ordinal: what
// appendExecution writes for px.Execution(ord), without building it.
func appendExecutionAt(dst []byte, px *composite.Projector, tok *run.Tokens, ord int32) []byte {
	dst = append(dst, `{"id":`...)
	dst = append(dst, px.EndpointToken(ord)...)
	dst = append(dst, `,"composite":`...)
	dst = append(dst, px.CompositeToken(ord)...)
	dst = append(dst, `,"steps":`...)
	dst = appendTokens(dst, &tok.Step, px.StepsOf(ord))
	if in := px.InputsOf(ord); len(in) > 0 {
		dst = append(dst, `,"inputs":`...)
		dst = appendTokens(dst, &tok.Data, in)
	}
	if out := px.OutputsOf(ord); len(out) > 0 {
		dst = append(dst, `,"outputs":`...)
		dst = appendTokens(dst, &tok.Data, out)
	}
	return append(dst, '}')
}

// appendTokens appends the JSON array of the tokens of ids, ascending. A
// stretch of consecutive ids is one copy out of the table: ids are ranks in
// natural order, so the d308..d408 a step wrote are a stretch wherever they
// are listed.
func appendTokens(dst []byte, t *jsontok.Table, ids []int32) []byte {
	dst = append(dst, '[')
	for i := 0; i < len(ids); {
		first := ids[i]
		for i++; i < len(ids) && ids[i] == ids[i-1]+1; i++ {
		}
		dst = append(dst, t.Span(first, ids[i-1])...)
		if i < len(ids) {
			dst = append(dst, ',')
		}
	}
	return append(dst, ']')
}

// appendExecution appends the one execution an immediate-provenance answer
// carries, from its strings.
func appendExecution(dst []byte, x *composite.Execution) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsontok.AppendString(dst, x.ID)
	dst = append(dst, `,"composite":`...)
	dst = jsontok.AppendString(dst, x.Composite)
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
		dst = jsontok.AppendString(dst, s)
	}
	return append(dst, ']')
}

// maxPooledBuf is the largest encode buffer returned to the pool: it covers
// the biggest answers the benchmark's corpora produce (~310 KB) without
// letting one outsized batch pin megabytes per pooled buffer.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}
