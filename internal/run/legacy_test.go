package run

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/spec"
	"repro/internal/wflog"
)

// The index once stored a run's names as three []string tables and its
// flows as an interned edge list, which checkFlows verified against the
// producer column. Both are derived now — names slice the arena, flows come
// from the rows (Index.EachFlow) — and the stored form lives on here as the
// oracle of the derivation.

// InternedFlow is one dataflow edge in interned form: endpoints are node
// codes and Data are indexes into the run's natural-order data table.
type InternedFlow struct {
	From, To int32
	Data     []int32
}

// legacyTables are the name and flow tables Builder.Build once produced.
type legacyTables struct {
	StepIDs, StepModules, DataNames []string
	Producer                        []int32
	Flows                           []InternedFlow
}

// legacyOf lays out a builder's steps, data and flows as Build once did:
// names in natural order, flows merged per (from, to), each flow's data
// sorted and duplicate-free, the flows sorted by (from, to) node code.
func legacyOf(b *Builder) legacyTables {
	sPerm, sRank := naturalOrder(b.ids)
	dPerm, dRank := naturalOrder(b.data)
	code := func(c int32) int32 {
		if c < NodeStep0 {
			return c
		}
		return NodeStep0 + sRank[c-NodeStep0]
	}
	var t legacyTables
	for _, i := range sPerm {
		t.StepIDs, t.StepModules = append(t.StepIDs, b.ids[i]), append(t.StepModules, b.modules[i])
	}
	for _, i := range dPerm {
		p := int32(-1)
		if b.prod[i] >= NodeStep0 {
			p = sRank[b.prod[i]-NodeStep0]
		}
		t.DataNames, t.Producer = append(t.DataNames, b.data[i]), append(t.Producer, p)
	}
	for _, f := range b.flows {
		var data []int32
		for _, d := range f.data {
			data = append(data, dRank[d])
		}
		slices.Sort(data)
		t.Flows = append(t.Flows, InternedFlow{From: code(f.from), To: code(f.to), Data: slices.Compact(data)})
	}
	slices.SortFunc(t.Flows, func(x, y InternedFlow) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	return t
}

// checkFlows enforces the rules Builder.AddFlow checks on the interned
// flows and cross-checks their producer assignment against the column.
func checkFlows(t legacyTables) error {
	nNodes, nData := NodeStep0+len(t.StepIDs), len(t.DataNames)
	name := func(code int32) string { return nodeName(code, func(s int32) string { return t.StepIDs[s] }) }
	prod := make([]int32, nData) // producing node code per the flows
	for i := range prod {
		prod[i] = -1
	}
	ascending, last := true, int64(-1)
	for _, f := range t.Flows {
		if f.From < 0 || int(f.From) >= nNodes || f.To < 0 || int(f.To) >= nNodes {
			return fmt.Errorf("%w: node code out of range on %d -> %d", ErrBadFlow, f.From, f.To)
		}
		if f.From == NodeOutput || f.To == NodeInput {
			return fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, name(f.From), name(f.To))
		}
		if f.From == f.To {
			return fmt.Errorf("%w: self flow on %s", ErrBadFlow, name(f.From))
		}
		if len(f.Data) == 0 {
			return fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, name(f.From), name(f.To))
		}
		key := int64(f.From)<<32 | int64(f.To)
		ascending = ascending && key > last
		last = key
		for i, di := range f.Data {
			if di < 0 || int(di) >= nData {
				return fmt.Errorf("%w: data index %d out of range on %s -> %s", ErrBadFlow, di, name(f.From), name(f.To))
			}
			if i > 0 && f.Data[i-1] >= di {
				return fmt.Errorf("%w: flow data not ascending on %s -> %s", ErrBadArena, name(f.From), name(f.To))
			}
			if prev := prod[di]; prev < 0 {
				prod[di] = f.From
			} else if prev != f.From {
				return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers, t.DataNames[di], name(prev), name(f.From))
			}
		}
	}
	if !ascending {
		return fmt.Errorf("%w: flows not strictly ascending by (from, to): out of order or duplicate edge", ErrBadArena)
	}
	for di, p := range prod {
		if p < 0 {
			return fmt.Errorf("%w: data %q appears in no flow", ErrBadArena, t.DataNames[di])
		}
		got := p - NodeStep0
		if p == NodeInput {
			got = -1
		}
		if got != t.Producer[di] {
			return fmt.Errorf("%w: producer column disagrees with flows on %q", ErrBadArena, t.DataNames[di])
		}
	}
	return nil
}

// DataOn returns the data ids on the edge from -> to, sorted naturally —
// what the run answered when it stored its flows, read off Flows now.
func (r *Run) DataOn(from, to string) []string {
	for _, f := range r.Flows() {
		if f.From == from && f.To == to {
			return f.Data
		}
	}
	return nil
}

// TestDerivedTablesMatchLegacy: for runs ingested from logs — the figure's,
// executed loops and a log with repeated reads — the names the index slices out of
// its arena and the flows it derives from its rows are exactly the tables
// Build once stored, and those pass the checks they once had to.
func TestDerivedTablesMatchLegacy(t *testing.T) {
	fig, err := Figure2().ToLog()
	if err != nil {
		t.Fatal(err)
	}
	start := func(step, module string) wflog.Event {
		return wflog.Event{Kind: wflog.KindStart, Step: step, Module: module}
	}
	read := func(step, d string) wflog.Event { return wflog.Event{Kind: wflog.KindRead, Step: step, Data: d} }
	write := func(step, d string) wflog.Event { return wflog.Event{Kind: wflog.KindWrite, Step: step, Data: d} }
	logs := map[string][]wflog.Event{
		"figure2": fig,
		// Steps read an input twice, and S3 reads after it writes.
		"repeats": {
			start("S1", "M1"), read("S1", "d1"), read("S1", "d1"), write("S1", "d2"), write("S1", "d3"),
			start("S2", "M2"), read("S2", "d2"), read("S2", "d1"), read("S2", "d1"), write("S2", "d10"),
			start("S3", "M2"), read("S3", "d3"), write("S3", "d4"), read("S3", "d10"),
		},
	}
	for _, cfg := range []Config{
		{RunID: "loop", Seed: 3, LoopIter: [2]int{4, 4}},
		{RunID: "wide", Seed: 9, LoopIter: [2]int{1, 3}, DataPerStep: [2]int{2, 9}, UserInput: [2]int{3, 12}},
	} {
		_, events, err := Execute(spec.Phylogenomics(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		logs[cfg.RunID] = events
	}
	for name, events := range logs {
		t.Run(name, func(t *testing.T) {
			l := NewLogLoader(name, "spec")
			for i, e := range events {
				e.Seq = int64(i + 1)
				if err := l.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			r, err := l.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want := legacyOf(l.b)
			if err := checkFlows(want); err != nil {
				t.Fatalf("legacy tables fail their checks: %v", err)
			}
			ix := r.Index()
			got := legacyTables{StepIDs: r.StepIDs(), DataNames: r.AllData(), Producer: ix.t.Producer}
			for s := int32(0); s < int32(ix.NumSteps()); s++ {
				got.StepModules = append(got.StepModules, ix.StepModule(s))
			}
			ix.EachFlow(func(from, to int32, data []int32) {
				got.Flows = append(got.Flows, InternedFlow{From: from, To: to, Data: slices.Clone(data)})
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("derived tables differ from the stored ones:\nderived %+v\nstored  %+v", got, want)
			}
			if r.NumEdges() != len(want.Flows) || r.Stats().Edges != len(want.Flows) {
				t.Fatalf("edge count %d (stats %d), stored %d", r.NumEdges(), r.Stats().Edges, len(want.Flows))
			}
		})
	}
}
