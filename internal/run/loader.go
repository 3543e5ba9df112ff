package run

import (
	"fmt"

	"repro/internal/wflog"
)

// LogLoader incrementally reconstructs a run from a stream of workflow-log
// events, the operation that makes ZOOM agnostic to the host workflow
// system: "our approach only requires a definition of the workflow, and
// information about the objects consumed and produced by steps in a
// workflow run". Events are validated and folded into a Builder as they
// arrive, so a multi-gigabyte log never has to be materialized as an
// []Event slice. The reconstruction rules:
//
//   - every start event introduces a step;
//   - a read of a data object written by step p induces the flow p -> reader;
//   - a read of a data object nobody wrote is external input (INPUT -> reader);
//   - data written but never read is final output (writer -> OUTPUT).
//
// Flows can only be wired once the producer of every read object is known,
// so the dataflow edges are materialized by Finish, not per event. Until
// then a data object's producer in the builder is the step that wrote it.
type LogLoader struct {
	b       *Builder
	reads   [][]int32 // step -> data it read, in log order (builder numbering)
	read    []bool    // data -> read by some step
	lastSeq int64
	n       int
	done    bool
}

// NewLogLoader returns an empty loader for the named run and specification.
func NewLogLoader(runID, specName string) *LogLoader {
	return &LogLoader{b: NewBuilder(runID, specName), lastSeq: -1}
}

// Add folds one event into the run under construction. It enforces the same
// per-event and sequence invariants as wflog.ValidateSequence — event
// validity, strictly increasing sequence numbers, start before read/write —
// incrementally, and reports errors with the same "event %d" indexes.
func (l *LogLoader) Add(e wflog.Event) error {
	if l.done {
		return fmt.Errorf("run: LogLoader used after Finish")
	}
	i := l.n
	if err := e.Validate(); err != nil {
		return fmt.Errorf("event %d: %w", i, err)
	}
	if e.Seq <= l.lastSeq {
		return fmt.Errorf("event %d: seq %d after %d: %w", i, e.Seq, l.lastSeq, wflog.ErrOutOfOrder)
	}
	l.lastSeq = e.Seq
	b := l.b
	s, started := b.stepOf[e.Step]
	switch {
	case e.Kind == wflog.KindStart && started:
		return fmt.Errorf("event %d: duplicate start for step %q: %w", i, e.Step, wflog.ErrBadEvent)
	case e.Kind == wflog.KindStart:
		if err := b.AddStep(e.Step, e.Module); err != nil {
			return err
		}
		l.reads = append(l.reads, nil)
	case !started:
		return fmt.Errorf("event %d: %s before start of step %q: %w", i, e.Kind, e.Step, wflog.ErrOutOfOrder)
	default:
		d := b.intern(e.Data)
		if int(d) == len(l.read) {
			l.read = append(l.read, false)
		}
		if e.Kind == wflog.KindRead {
			l.reads[s] = append(l.reads[s], d)
			l.read[d] = true
		} else if w := b.prod[d]; w >= 0 {
			return fmt.Errorf("%w: %q written by %q and %q", ErrTwoProducers, e.Data, nodeName(w, b.step), e.Step)
		} else {
			b.prod[d] = NodeStep0 + s
		}
	}
	l.n++
	return nil
}

// NumEvents returns the number of events folded in so far.
func (l *LogLoader) NumEvents() int { return l.n }

// Finish materializes the dataflow edges and returns the reconstructed run.
// The loader cannot be reused afterwards.
func (l *LogLoader) Finish() (*Run, error) {
	if l.done {
		return nil, fmt.Errorf("run: LogLoader used after Finish")
	}
	l.done = true
	b := l.b
	for s, ds := range l.reads {
		to := NodeStep0 + int32(s)
		for _, d := range ds {
			from := b.prod[d]
			if from < 0 {
				from = NodeInput
			}
			if from == to {
				return nil, fmt.Errorf("%w: self flow on %s", ErrBadFlow, b.ids[s])
			}
			b.carry(b.edge(from, to), d)
		}
	}
	// Unread writes become final outputs.
	for d, read := range l.read {
		if !read {
			b.carry(b.edge(b.prod[d], NodeOutput), int32(d))
		}
	}
	return b.Build()
}

// FromLog reconstructs a run from an event log: the batch form of LogLoader.
func FromLog(runID, specName string, events []wflog.Event) (*Run, error) {
	l := NewLogLoader(runID, specName)
	for _, e := range events {
		if err := l.Add(e); err != nil {
			return nil, err
		}
	}
	return l.Finish()
}

// ToLog renders a run as the event log that would have produced it: steps
// in the index's topological order (TopoOrder), each starting, reading its
// inputs, and writing its outputs. ToLog and FromLog are inverse up to
// final-output placement, which the round-trip tests pin down.
func (r *Run) ToLog() ([]wflog.Event, error) {
	ix := r.ix
	order := ix.TopoOrder()
	if len(order) != ix.NumSteps() {
		return nil, fmt.Errorf("run %q: %w", r.id, ErrCyclicRun)
	}
	// One start per step, one read per input and one write per output:
	// the log's length is known, and seq is an event's position from 1.
	events := make([]wflog.Event, 0, ix.NumSteps()+len(ix.t.InData)+len(ix.t.OutData))
	for _, s := range order {
		id := ix.StepName(s)
		events = append(events, wflog.Event{Seq: int64(len(events) + 1), Kind: wflog.KindStart, Step: id, Module: ix.StepModule(s)})
		for _, d := range ix.InputsOf(s) {
			events = append(events, wflog.Event{Seq: int64(len(events) + 1), Kind: wflog.KindRead, Step: id, Data: ix.DataName(d)})
		}
		for _, d := range ix.OutputsOf(s) {
			events = append(events, wflog.Event{Seq: int64(len(events) + 1), Kind: wflog.KindWrite, Step: id, Data: ix.DataName(d)})
		}
	}
	return events, nil
}
