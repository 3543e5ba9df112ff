package wflog

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/jsontok"
)

// The canonical line is the one shape Write emits for an event, the bytes
// json.Encoder writes for it: {"seq":N,"kind":"K","step":"S"}, then
// ,"module":"M" and ,"data":"D" when set, then the closing brace.
// decodeCanonical reads it itself when N is non-negative (so without a
// leading zero, and within an int64), at most one of module and data is
// there, and every string is printable ASCII without '"' or '\' (every
// generated line): json.Unmarshal would have nothing to do but copy the
// bytes. Any other line is json.Unmarshal's:
// the decoder falls back to it, so every input decodes, or fails, exactly
// as json.Unmarshal alone would have (FuzzDecodeLine holds the two paths
// together).
var (
	keySeq    = []byte(`{"seq":`)
	keyKind   = []byte(`,"kind":`)
	keyStep   = []byte(`,"step":`)
	keyModule = []byte(`,"module":`)
	keyData   = []byte(`,"data":`)
)

// appendCanonical appends e's line and a newline to dst without reflection;
// jsontok escapes a string as encoding/json does (FuzzWriteLine).
func appendCanonical(dst []byte, e *Event) []byte {
	dst = strconv.AppendInt(append(dst, keySeq...), e.Seq, 10)
	dst = jsontok.AppendString(append(dst, keyKind...), string(e.Kind))
	dst = jsontok.AppendString(append(dst, keyStep...), e.Step)
	if e.Module != "" {
		dst = jsontok.AppendString(append(dst, keyModule...), e.Module)
	}
	if e.Data != "" {
		dst = jsontok.AppendString(append(dst, keyData...), e.Data)
	}
	return append(dst, '}', '\n')
}

// decodeLine decodes one log line: a canonical line directly, any other
// through json.Unmarshal. The fallback decodes into its own variable, so
// the fast path's Event never escapes to the heap.
func decodeLine(line []byte) (Event, error) {
	if e, ok := decodeCanonical(line); ok {
		return e, nil
	}
	var e Event
	err := json.Unmarshal(line, &e)
	return e, err
}

// decodeCanonical decodes a canonical line. It reports false, with a zero
// Event, for any other line. The only allocations are the step and the
// module or data strings: the three known kinds are the package constants.
func decodeCanonical(line []byte) (Event, bool) {
	var e Event
	rest, ok := bytes.CutPrefix(line, keySeq)
	if !ok {
		return Event{}, false
	}
	if e.Seq, rest, ok = canonicalSeq(rest); !ok {
		return Event{}, false
	}
	var kind, step []byte
	if kind, rest, ok = canonicalField(rest, keyKind); !ok {
		return Event{}, false
	}
	if step, rest, ok = canonicalField(rest, keyStep); !ok {
		return Event{}, false
	}
	target, extra := &e.Module, []byte(nil)
	switch {
	case bytes.HasPrefix(rest, keyModule):
		extra, rest, ok = canonicalField(rest, keyModule)
	case bytes.HasPrefix(rest, keyData):
		target = &e.Data
		extra, rest, ok = canonicalField(rest, keyData)
	}
	if !ok || string(rest) != "}" {
		return Event{}, false
	}
	switch string(kind) {
	case string(KindStart):
		e.Kind = KindStart
	case string(KindRead):
		e.Kind = KindRead
	case string(KindWrite):
		e.Kind = KindWrite
	default:
		e.Kind = Kind(kind)
	}
	e.Step = string(step)
	*target = string(extra)
	return e, true
}

// canonicalSeq reads the sequence number at the start of b: decimal digits
// with no leading zero (a lone 0 aside) whose value fits in an int64.
func canonicalSeq(b []byte) (int64, []byte, bool) {
	var n int64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		digit := int64(b[i] - '0')
		if n > (math.MaxInt64-digit)/10 {
			return 0, nil, false
		}
		n = n*10 + digit
	}
	if i == 0 || (b[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return n, b[i:], true
}

// canonicalField reads key followed by a canonical string at the start of
// b and returns the string's contents and what follows its closing quote.
func canonicalField(b, key []byte) (val, rest []byte, ok bool) {
	b, ok = bytes.CutPrefix(b, key)
	if !ok || len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	b = b[1:]
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		return nil, nil, false
	}
	for _, c := range b[:end] {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, nil, false
		}
	}
	return b[:end], b[end+1:], true
}
