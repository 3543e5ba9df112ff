package server

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"

	"repro/internal/composite"
	"repro/internal/jsontok"
	"repro/internal/provenance"
	"repro/internal/run"
)

// The answer encoder. /v1/query and /v1/batch bodies are appended straight
// from the engine's own types into one pooled buffer: no intermediate
// response structs, no reflection, no indentation. A deep, derived or batch
// answer arrives in integers (provenance.Answer) and is written as literals
// and token copies: every name in it was escaped once, when its run's or its
// mapping's token table was built (run.Index.Tokens, composite.Projector),
// so no name is read here; an immediate answer's one execution is written
// the same way, from its mapping's ordinal. The bytes are exactly
// json.Marshal of the documented response shapes (spelled as structs in
// encode_test.go, where they and the string-walking encoder this one
// replaced are its oracles)
// plus the newline json.Encoder writes: same field order, same omitempty
// behaviour, same HTML-safe escaping. The one value that is rare and small,
// an external root's metadata, is marshalled reflectively in place.

// queryAnswer is what handleQuery hands the encoder: the request's echo and
// whatever the engine returned for its kind, a deep or derived answer or an
// immediate answer's producing execution as a (projector, ordinal) pair.
// Nothing in it is per-request: the trace id and a traced request's span
// tree travel in headers, so an answer's bytes are a function of the request
// and the loaded warehouse alone.
type queryAnswer struct {
	run, data, kind string
	result          *provenance.Answer
	px              *composite.Projector // immediate: nil, or ord < 0, for external input
	ord             int32
}

func appendQueryResponse(dst []byte, a *queryAnswer) []byte {
	dst = grow(dst, queryBound(a))
	dst = append(dst, `{"run":`...)
	dst = jsontok.AppendString(dst, a.run)
	dst = append(dst, `,"data":`...)
	dst = jsontok.AppendString(dst, a.data)
	dst = append(dst, `,"kind":`...)
	dst = jsontok.AppendString(dst, a.kind)
	if a.result != nil {
		dst = append(dst, `,"result":`...)
		dst = appendAnswer(dst, a.result)
	}
	if a.px != nil && a.ord >= 0 {
		dst = append(dst, `,"execution":`...)
		dst = appendExecutionAt(dst, a.px, a.px.Index().Tokens(), a.ord)
	}
	return append(dst, '}', '\n') // json.Encoder's trailing newline
}

func appendBatchResponse(dst []byte, run string, results []*provenance.Answer) []byte {
	dst = grow(dst, batchBound(run, results))
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
			dst = appendAnswer(dst, res)
		}
	}
	return append(dst, ']', '}', '\n')
}

// AppendAnswer appends one provenance answer as the "result" object of the
// wire format. Executions, data and edges are always arrays, even when empty.
func AppendAnswer(dst []byte, a *provenance.Answer) []byte {
	return appendAnswer(grow(dst, answerBound(a)), a)
}

func appendAnswer(dst []byte, a *provenance.Answer) []byte {
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

// appendExecutionAt appends the execution at a mapping's ordinal: what the
// string-walking appendExecution (encode_test.go) writes for
// px.Execution(ord), without building it.
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

// The encoder sizes its buffer once. A pooled buffer that has grown to the
// answers it serves needs nothing more, but the pool is empty in a fresh
// process and again after every second GC, and appending a 91 KB answer to
// an empty buffer took 22 allocations. So each response first grows dst by
// an upper bound on what it will write: row lengths from the mapping's
// offsets times the longest token of each table, O(executions) arithmetic
// that reads no name (1.06x the bytes of a large answer). An external
// root's metadata is left out: it is marshalled in place, and may grow the
// buffer once more.

// grow grows dst by bound, unless the bound is past maxPooledBuf. Names come
// from ingested logs and nothing limits their length, so one long name
// inflates the bound of every answer on its run (items times the longest
// token), and a buffer that size would never go back to the pool. Such a
// response, like a truly outsized one, is appended as it comes.
func grow(dst []byte, bound int) []byte {
	if bound > maxPooledBuf {
		return dst
	}
	return slices.Grow(dst, bound)
}

// The literals around an answer's parts, each with its brackets and with
// the comma that may follow it.
const (
	answerFixed = len(`{"root":,"external":true,"executions":[],"data":[],"edges":[]}`)
	execFixed   = len(`{"id":,"composite":,"steps":[],"inputs":[],"outputs":[]},`)
	edgeFixed   = len(`{"from":,"to":,"data":[]},`)
)

// stringBound bounds the token of s: encoding/json writes at most six bytes
// (\u00XX, \ufffd) for one byte of the string, plus the two quotes.
func stringBound(s string) int { return 6*len(s) + 2 }

// queryBound bounds what appendQueryResponse writes for a.
func queryBound(a *queryAnswer) int {
	n := len(`{"run":,"data":,"kind":,"result":,"execution":}`+"\n") +
		stringBound(a.run) + stringBound(a.data) + stringBound(a.kind)
	if a.result != nil {
		n += answerBound(a.result)
	}
	if a.px != nil && a.ord >= 0 {
		n += executionsBound(a.px, []int32{a.ord})
	}
	return n
}

// batchBound bounds what appendBatchResponse writes.
func batchBound(run string, results []*provenance.Answer) int {
	n := len(`{"run":,"count":-9223372036854775808,"results":[]}`+"\n") + stringBound(run)
	for _, res := range results {
		n += len(`null,`)
		if res != nil {
			n += answerBound(res)
		}
	}
	return n
}

// answerBound bounds what appendAnswer writes for a, its metadata aside.
func answerBound(a *provenance.Answer) int {
	px := a.Projector
	data := px.Index().Tokens().Data.Longest() + 1
	return answerFixed + stringBound(a.Root) + (len(a.Data)+len(a.EdgeData))*data +
		len(a.Edges)*(edgeFixed+2*px.LongestEndpointToken()) + executionsBound(px, a.Executions)
}

// executionsBound bounds what appendExecutionAt writes for the executions at
// ords.
func executionsBound(px *composite.Projector, ords []int32) int {
	tok := px.Index().Tokens()
	steps, data := px.RowLengths(ords)
	return len(ords)*(execFixed+px.LongestEndpointToken()+px.LongestCompositeToken()) +
		steps*(tok.Step.Longest()+1) + data*(tok.Data.Longest()+1)
}

// maxPooledBuf is the largest encode buffer returned to the pool: it covers
// the biggest answers the benchmark's corpora produce (~310 KB) without
// letting one outsized batch pin megabytes per pooled buffer.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}
