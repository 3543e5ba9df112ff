// Package wflog models the execution log a workflow system emits while
// running a workflow — the raw material of provenance. Following Section II
// of the paper, the log records, per step: the module the step is an
// instance of, which data objects the step read, and which it wrote. From
// this information alone the immediate provenance of every data object can
// be reconstructed, which is all the ZOOM approach requires of the host
// workflow system.
//
// Events are serialized as JSON lines so that logs can be streamed, appended
// to, and replayed. Neither direction uses reflection (canonical.go): Write
// appends each event's one canonical line, the bytes json.Encoder would
// write, and Decoder reads that shape directly and hands every other line
// to json.Unmarshal, so any JSON spelling of an event decodes, or fails,
// exactly as encoding/json alone would decode it.
package wflog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Kind discriminates log event types.
type Kind string

// Event kinds.
const (
	// KindStart records that a step began executing and names its module.
	KindStart Kind = "start"
	// KindRead records that a step read one data object.
	KindRead Kind = "read"
	// KindWrite records that a step wrote (produced) one data object.
	KindWrite Kind = "write"
)

// Event is one log record. Seq is a monotonically increasing sequence
// number standing in for the wall-clock timestamps real systems record.
type Event struct {
	Seq    int64  `json:"seq"`
	Kind   Kind   `json:"kind"`
	Step   string `json:"step"`
	Module string `json:"module,omitempty"` // only on start events
	Data   string `json:"data,omitempty"`   // only on read/write events
}

// Validation errors.
var (
	ErrBadEvent   = errors.New("wflog: malformed event")
	ErrOutOfOrder = errors.New("wflog: events out of order")
	// ErrLineTooLong reports a log line exceeding MaxLineBytes. It wraps the
	// scanner's bufio.ErrTooLong with the offending line number so operators
	// can find the bad record instead of guessing from a bare "token too
	// long".
	ErrLineTooLong = errors.New("wflog: line too long")
)

// MaxLineBytes is the largest JSON-lines record the reader accepts. A single
// event is tiny; the cap only exists so a corrupt (newline-free) file cannot
// buffer without bound.
const MaxLineBytes = 16 * 1024 * 1024

// Validate checks a single event's internal consistency.
func (e Event) Validate() error {
	switch e.Kind {
	case KindStart:
		if e.Module == "" {
			return fmt.Errorf("%w: start event for step %q without module", ErrBadEvent, e.Step)
		}
		if e.Data != "" {
			return fmt.Errorf("%w: start event for step %q carries data", ErrBadEvent, e.Step)
		}
	case KindRead, KindWrite:
		if e.Data == "" {
			return fmt.Errorf("%w: %s event for step %q without data", ErrBadEvent, e.Kind, e.Step)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadEvent, e.Kind)
	}
	if e.Step == "" {
		return fmt.Errorf("%w: event without step", ErrBadEvent)
	}
	return nil
}

// ValidateSequence checks a whole log: per-event validity, strictly
// increasing sequence numbers, and that every step's start event precedes
// its reads and writes.
func ValidateSequence(events []Event) error {
	started := make(map[string]bool)
	var lastSeq int64 = -1
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if e.Seq <= lastSeq {
			return fmt.Errorf("event %d: seq %d after %d: %w", i, e.Seq, lastSeq, ErrOutOfOrder)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case KindStart:
			if started[e.Step] {
				return fmt.Errorf("event %d: duplicate start for step %q: %w", i, e.Step, ErrBadEvent)
			}
			started[e.Step] = true
		default:
			if !started[e.Step] {
				return fmt.Errorf("event %d: %s before start of step %q: %w", i, e.Kind, e.Step, ErrOutOfOrder)
			}
		}
	}
	return nil
}

// Write serializes events as JSON lines: each event's canonical line, byte
// for byte what a json.Encoder writes for it.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 128)
	for i := range events {
		line = appendCanonical(line[:0], &events[i])
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("wflog: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines log. It stops at EOF and rejects malformed lines.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	dec := NewDecoder(r)
	for dec.Next() {
		out = append(out, dec.Event())
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Decoder reads a JSON-lines log one event at a time, so large logs can be
// ingested without materializing an []Event slice — the streaming half of
// the warehouse's LoadLogReader path.
//
//	dec := wflog.NewDecoder(f)
//	for dec.Next() {
//	    handle(dec.Event())
//	}
//	if err := dec.Err(); err != nil { ... }
type Decoder struct {
	sc   *bufio.Scanner
	line int
	e    Event
	err  error
}

// NewDecoder returns a decoder over a JSON-lines log.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	return &Decoder{sc: sc}
}

// Next advances to the next event, skipping blank lines. It returns false at
// end of input or on the first error; Err distinguishes the two.
func (d *Decoder) Next() bool {
	if d.err != nil {
		return false
	}
	for d.sc.Scan() {
		d.line++
		text := d.sc.Bytes()
		if len(text) == 0 {
			continue
		}
		e, err := decodeLine(text)
		if err != nil {
			d.err = fmt.Errorf("wflog: line %d: %w", d.line, err)
			return false
		}
		d.e = e
		return true
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner dies on the line after the last one it returned.
			d.err = fmt.Errorf("%w: line %d exceeds %d bytes", ErrLineTooLong, d.line+1, MaxLineBytes)
		} else {
			d.err = fmt.Errorf("wflog: scan: %w", err)
		}
	}
	return false
}

// Event returns the event read by the last successful Next.
func (d *Decoder) Event() Event { return d.e }

// Line returns the line number of the last event returned.
func (d *Decoder) Line() int { return d.line }

// Err returns the first decoding error, or nil on clean end of input.
func (d *Decoder) Err() error { return d.err }

// Builder incrementally assembles a valid log, assigning sequence numbers.
type Builder struct {
	events []Event
	seq    int64
}

// NewBuilder returns an empty log builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) emit(e Event) {
	b.seq++
	e.Seq = b.seq
	b.events = append(b.events, e)
}

// Start records the start of a step.
func (b *Builder) Start(step, module string) {
	b.emit(Event{Kind: KindStart, Step: step, Module: module})
}

// Reads records that step read each of the given data objects.
func (b *Builder) Reads(step string, data ...string) {
	for _, d := range data {
		b.emit(Event{Kind: KindRead, Step: step, Data: d})
	}
}

// Writes records that step wrote each of the given data objects.
func (b *Builder) Writes(step string, data ...string) {
	for _, d := range data {
		b.emit(Event{Kind: KindWrite, Step: step, Data: d})
	}
}

// Events returns the accumulated log. The slice is shared; callers must not
// mutate it while continuing to use the builder.
func (b *Builder) Events() []Event { return b.events }
