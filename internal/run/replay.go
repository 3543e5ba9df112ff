package run

import (
	"fmt"

	"repro/internal/wflog"
)

// FromLog reconstructs a run from an event log, the operation that makes
// ZOOM agnostic to the host workflow system: "our approach only requires a
// definition of the workflow, and information about the objects consumed
// and produced by steps in a workflow run".
//
// Reconstruction rules:
//   - every start event introduces a step;
//   - a read of a data object written by step p induces the flow p -> reader;
//   - a read of a data object nobody wrote is external input (INPUT -> reader);
//   - data written but never read is final output (writer -> OUTPUT).
// FromLog is the batch form of LogLoader (see loader.go), which streams the
// same reconstruction event by event.
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
// in topological order, each starting, reading its inputs, and writing its
// outputs. ToLog and FromLog are inverse up to final-output placement, which
// the round-trip tests pin down.
func (r *Run) ToLog() ([]wflog.Event, error) {
	r.strings()
	order, err := r.g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("run %q: %w", r.id, err)
	}
	b := wflog.NewBuilder()
	for _, node := range order {
		st, ok := r.steps[node]
		if !ok {
			continue // INPUT/OUTPUT
		}
		b.Start(st.ID, st.Module)
		b.Reads(st.ID, r.InputsOf(st.ID)...)
		b.Writes(st.ID, r.OutputsOf(st.ID)...)
	}
	return b.Events(), nil
}
