package wflog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzRead checks that the log reader never panics and that anything it
// accepts round-trips through Write and Read unchanged. Run with
// `go test -fuzz FuzzRead ./internal/wflog` for a real campaign; the seed
// corpus runs as a normal unit test.
func FuzzRead(f *testing.F) {
	f.Add(`{"seq":1,"kind":"start","step":"S1","module":"M"}`)
	f.Add(`{"seq":1,"kind":"read","step":"S1","data":"d1"}` + "\n" + `{"seq":2,"kind":"write","step":"S1","data":"d2"}`)
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"seq":-1}`)
	f.Add(`not json at all`)
	f.Add(`{"seq":1,"kind":"start","step":"S1","module":"M"}` + "\nbroken")
	f.Fuzz(func(t *testing.T, input string) {
		events, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, events); err != nil {
			t.Fatalf("accepted log failed to encode: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded log failed to parse: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(back))
		}
	})
}

// FuzzDecodeLine holds the decoder's canonical-line fast path to
// json.Unmarshal, the fallback for every other line: on any one line both
// accept or both reject, an accepted line decodes to the same Event, and a
// rejected one fails with json.Unmarshal's error under the line number.
func FuzzDecodeLine(f *testing.F) {
	for _, line := range []string{
		`{"seq":1,"kind":"start","step":"S1","module":"M1"}`,
		`{"seq":2,"kind":"read","step":"S1","data":"d1"}`,
		`{"seq":3,"kind":"write","step":"S1","data":"d2"}`,
		`{"seq":0,"kind":"start","step":"S1"}`,
		`{"seq":4,"kind":"boom","step":"S1","data":"d1"}`,
		// Escaped ids, a raw '<', non-ASCII and invalid UTF-8.
		`{"seq":1,"kind":"start","step":"\u00531","module":"M\u003c"}`,
		`{"seq":1,"kind":"start","step":"S\"<","module":"M"}`,
		`{"seq":1,"kind":"read","step":"S<1","data":"d<1"}`,
		`{"seq":1,"kind":"read","step":"S1","data":"dé"}`,
		"{\"seq\":1,\"kind\":\"read\",\"step\":\"S1\",\"data\":\"d\xff\"}",
		"{\"seq\":1,\"kind\":\"read\",\"step\":\"S\x7f\",\"data\":\"d\x01\"}",
		// Sequence numbers the fast path leaves to json.Unmarshal.
		`{"seq":01,"kind":"start","step":"S1","module":"M"}`,
		`{"seq":-1,"kind":"start","step":"S1","module":"M"}`,
		`{"seq":1e3,"kind":"start","step":"S1","module":"M"}`,
		`{"seq":1.0,"kind":"start","step":"S1","module":"M"}`,
		`{"seq":9223372036854775807,"kind":"start","step":"S1","module":"M"}`,
		`{"seq":9223372036854775808,"kind":"start","step":"S1","module":"M"}`,
		`{"seq":12345678901234567890,"kind":"start","step":"S1","module":"M"}`,
		// Key order, key case, whitespace, duplicates and extra keys.
		`{"kind":"start","seq":1,"step":"S1","module":"M"}`,
		`{"SEQ":1,"Kind":"start","step":"S1","Module":"M"}`,
		`{ "seq": 1, "kind": "start", "step": "S1", "module": "M" }`,
		`{"seq":1,"kind":"read","step":"S1","data":"d1","data":"d2"}`,
		`{"seq":1,"kind":"start","step":"S1","module":"M","data":"d1"}`,
		`{"seq":1,"kind":"start","step":"S1","module":""}`,
		`{"seq":1,"kind":"start","step":"S1","extra":true}`,
		`{"seq":1,"kind":"start","step":"S1","module":null}`,
		// Trailing bytes, truncation and garbage.
		`{"seq":1,"kind":"start","step":"S1","module":"M"} `,
		`{"seq":1,"kind":"start","step":"S1","module":"M"}}`,
		`{"seq":1,"kind":"start","step":"S1","module":"M"`,
		`{"seq":1,"kind":"start","step":"S1","module":"M}`,
		`{"seq":1,"kind":"start","step":"S1"`,
		`not json at all`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) == 0 || bytes.ContainsAny(line, "\r\n") {
			return // the scanner splits at these; this target is about one line
		}
		var want Event
		wantErr := json.Unmarshal(line, &want)
		dec := NewDecoder(bytes.NewReader(line))
		got := dec.Next()
		switch {
		case got != (wantErr == nil):
			t.Fatalf("decoder accepted=%v, json.Unmarshal err=%v, decoder err=%v", got, wantErr, dec.Err())
		case got && dec.Event() != want:
			t.Fatalf("decoded %+v, json.Unmarshal %+v", dec.Event(), want)
		case !got && dec.Err().Error() != fmt.Sprintf("wflog: line 1: %v", wantErr):
			t.Fatalf("error %q, want json.Unmarshal's %q", dec.Err(), wantErr)
		}
	})
}

// encoderWrite is the reference writer: what Write was before it appended
// the canonical line itself, a json.Encoder over the events.
func encoderWrite(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FuzzWriteLine holds Write to encoderWrite byte for byte on any one event,
// and checks that an event whose strings are valid UTF-8 reads back
// unchanged.
func FuzzWriteLine(f *testing.F) {
	for _, e := range []Event{
		{Seq: 1, Kind: KindStart, Step: "S1", Module: "M1"},
		{Seq: 2, Kind: KindRead, Step: "S1", Data: "d1"},
		{Seq: 3, Kind: KindWrite, Step: "S10", Data: "d308"},
		{Seq: 4, Kind: KindStart, Step: "<S>&", Module: "M<1>"},
		{Seq: 5, Kind: KindRead, Step: `S"1`, Data: `d\1`},
		{Seq: 6, Kind: KindWrite, Step: "S\x00\t\n\x1f", Data: "d\x7f"},
		{Seq: 7, Kind: KindRead, Step: "S\u2028", Data: "d\u2029"},
		{Seq: 8, Kind: KindRead, Step: "S\xff", Data: "d\xc3"},
		{Seq: 9, Kind: KindRead, Step: "Sé", Data: "d日本"},
		{Seq: 10},
		{Seq: 11, Kind: "boom", Step: "S1"},
		{Seq: -1, Kind: KindStart, Step: "S1", Module: "M"},
		{Seq: math.MaxInt64, Kind: KindWrite, Step: "S1", Data: "d1"},
		{Seq: math.MinInt64, Kind: KindStart, Step: "S1", Module: "M", Data: "d1"},
	} {
		f.Add(e.Seq, string(e.Kind), e.Step, e.Module, e.Data)
	}
	f.Fuzz(func(t *testing.T, seq int64, kind, step, module, data string) {
		e := Event{Seq: seq, Kind: Kind(kind), Step: step, Module: module, Data: data}
		var got, want bytes.Buffer
		if err := Write(&got, []Event{e}); err != nil {
			t.Fatal(err)
		}
		if err := encoderWrite(&want, []Event{e}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Write(%+v) = %q, json.Encoder %q", e, got.Bytes(), want.Bytes())
		}
		for _, s := range []string{kind, step, module, data} {
			if !utf8.ValidString(s) {
				return // read back as U+FFFD, which is encoding/json's rule
			}
		}
		back, err := Read(&got)
		if err != nil || len(back) != 1 || back[0] != e {
			t.Fatalf("Read(Write(%+v)) = %+v, %v", e, back, err)
		}
	})
}
