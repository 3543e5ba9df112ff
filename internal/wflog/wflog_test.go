package wflog

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func sampleLog() []Event {
	b := NewBuilder()
	b.Start("S1", "M1")
	b.Reads("S1", "d1", "d2")
	b.Writes("S1", "d3")
	b.Start("S2", "M2")
	b.Reads("S2", "d3")
	b.Writes("S2", "d4")
	return b.Events()
}

func TestBuilderSequencing(t *testing.T) {
	events := sampleLog()
	if err := ValidateSequence(events); err != nil {
		t.Fatalf("builder produced invalid log: %v", err)
	}
	if len(events) != 7 {
		t.Fatalf("len = %d, want 7", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatal("sequence numbers not strictly increasing")
		}
	}
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Event
	}{
		{"start without module", Event{Kind: KindStart, Step: "S1"}},
		{"start with data", Event{Kind: KindStart, Step: "S1", Module: "M", Data: "d1"}},
		{"read without data", Event{Kind: KindRead, Step: "S1"}},
		{"write without data", Event{Kind: KindWrite, Step: "S1"}},
		{"unknown kind", Event{Kind: "boom", Step: "S1"}},
		{"missing step", Event{Kind: KindRead, Data: "d1"}},
	}
	for _, tc := range cases {
		if err := tc.e.Validate(); !errors.Is(err, ErrBadEvent) {
			t.Errorf("%s: err = %v, want ErrBadEvent", tc.name, err)
		}
	}
	good := Event{Seq: 1, Kind: KindStart, Step: "S1", Module: "M1"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
}

func TestValidateSequenceOrdering(t *testing.T) {
	readBeforeStart := []Event{
		{Seq: 1, Kind: KindRead, Step: "S1", Data: "d1"},
	}
	if err := ValidateSequence(readBeforeStart); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("read before start: %v", err)
	}
	dupStart := []Event{
		{Seq: 1, Kind: KindStart, Step: "S1", Module: "M"},
		{Seq: 2, Kind: KindStart, Step: "S1", Module: "M"},
	}
	if err := ValidateSequence(dupStart); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("duplicate start: %v", err)
	}
	nonMonotone := []Event{
		{Seq: 5, Kind: KindStart, Step: "S1", Module: "M"},
		{Seq: 5, Kind: KindWrite, Step: "S1", Data: "d1"},
	}
	if err := ValidateSequence(nonMonotone); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("non-monotone seq: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	events := sampleLog()
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("round trip mismatch:\n%v\n%v", back, events)
	}
}

func TestReadSkipsBlankLinesRejectsGarbage(t *testing.T) {
	in := strings.NewReader("\n" + `{"seq":1,"kind":"start","step":"S1","module":"M"}` + "\n\n")
	events, err := Read(in)
	if err != nil || len(events) != 1 {
		t.Fatalf("events=%v err=%v", events, err)
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// Property: any log assembled via the Builder validates, regardless of the
// interleaving of reads and writes after each start.
func TestBuilderAlwaysValidQuick(t *testing.T) {
	f := func(stepCount uint8, ops []bool) bool {
		b := NewBuilder()
		n := int(stepCount)%5 + 1
		for s := 0; s < n; s++ {
			step := "S" + string(rune('0'+s))
			b.Start(step, "M")
			for i, op := range ops {
				d := "d" + string(rune('0'+i%10))
				if op {
					b.Reads(step, d)
				} else {
					b.Writes(step, d)
				}
			}
		}
		return ValidateSequence(b.Events()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderAllocs: a line in the shape Write emits decodes without
// reflection, allocating only its step and its module or data string.
func TestDecoderAllocs(t *testing.T) {
	for _, line := range []string{
		`{"seq":1,"kind":"start","step":"S1","module":"M1"}`,
		`{"seq":2,"kind":"read","step":"S1","data":"d1"}`,
	} {
		const runs = 100
		dec := NewDecoder(strings.NewReader(strings.Repeat(line+"\n", runs+1)))
		allocs := testing.AllocsPerRun(runs, func() {
			if !dec.Next() {
				t.Fatalf("%s: %v", line, dec.Err())
			}
		})
		if allocs > 2 {
			t.Errorf("%s: %.1f allocations per line, want at most 2", line, allocs)
		}
	}
}

// TestWriteAllocs: Write allocates its buffers once per call, however many
// events it writes.
func TestWriteAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		b := NewBuilder()
		for s := 1; s <= n/3; s++ {
			step := "S" + strconv.Itoa(s)
			b.Start(step, "M"+strconv.Itoa(s%7))
			b.Reads(step, "d"+strconv.Itoa(s))
			b.Writes(step, "d"+strconv.Itoa(s+1))
		}
		events := b.Events()
		return testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, events); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(10_000); few != many || many > 3 {
		t.Fatalf("Write allocates %.0f times for 10 events and %.0f for 10,000, want the same, at most 3", few, many)
	}
}
