// Package core implements the paper's primary contribution: user views over
// workflow specifications (Section II), the three properties of a good user
// view plus minimality (Section III), and the RelevUserViewBuilder
// algorithm (Figure 5).
//
// A user view U of a specification G_w is a partition of its modules
// (excluding INPUT and OUTPUT) into composite modules. U induces a
// higher-level specification U(G_w) — the quotient graph — and restricts
// which steps and data objects are visible when querying provenance.
package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/spec"
)

// UserView is a partition of a specification's modules into composite
// modules. Views are immutable once constructed.
type UserView struct {
	spec   *spec.Spec
	blocks map[string][]string // composite name -> sorted member modules
	owner  map[string]string   // module -> composite name

	// The same partition on integers, for code that maps many steps to
	// their composites (composite.Build): composite names sorted, and each
	// module's position among them. Every run of the specification shares it.
	names   []string
	ownerID map[string]int32
}

// NewUserView constructs a view over s from the given blocks and validates
// that they form a partition of the modules: every module appears in exactly
// one block, blocks are non-empty, and block names neither use the reserved
// INPUT/OUTPUT identifiers nor shadow a module outside the block.
func NewUserView(s *spec.Spec, blocks map[string][]string) (*UserView, error) {
	v := &UserView{
		spec:   s,
		blocks: make(map[string][]string, len(blocks)),
		owner:  make(map[string]string),
	}
	for name, members := range blocks {
		if name == spec.Input || name == spec.Output {
			return nil, fmt.Errorf("core: composite name %q is reserved: %w", name, ErrBadView)
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("core: composite %q is empty: %w", name, ErrBadView)
		}
		sorted := append([]string(nil), members...)
		sort.Strings(sorted)
		v.blocks[name] = sorted
		for _, m := range members {
			if !s.HasModule(m) {
				return nil, fmt.Errorf("core: composite %q contains unknown module %q: %w", name, m, ErrBadView)
			}
			if prev, dup := v.owner[m]; dup {
				return nil, fmt.Errorf("core: module %q in both %q and %q: %w", m, prev, name, ErrBadView)
			}
			v.owner[m] = name
		}
	}
	for _, m := range s.ModuleNames() {
		if _, ok := v.owner[m]; !ok {
			return nil, fmt.Errorf("core: module %q not covered by any composite: %w", m, ErrBadView)
		}
	}
	// A block may be named after a module only if that module is a member;
	// otherwise the induced graph would silently conflate two identities.
	for name := range v.blocks {
		if s.HasModule(name) && v.owner[name] != name {
			return nil, fmt.Errorf("core: composite %q shadows module %q outside it: %w", name, name, ErrBadView)
		}
	}
	v.names = make([]string, 0, len(v.blocks))
	for name := range v.blocks {
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	v.ownerID = make(map[string]int32, len(v.owner))
	for i, name := range v.names {
		for _, m := range v.blocks[name] {
			v.ownerID[m] = int32(i)
		}
	}
	return v, nil
}

// Spec returns the specification the view partitions.
func (v *UserView) Spec() *spec.Spec { return v.spec }

// Size returns |U|, the number of composite modules.
func (v *UserView) Size() int { return len(v.blocks) }

// CompositeOf returns the composite module containing the given module, or
// the module itself when it is INPUT or OUTPUT (the paper's convention
// C(input) = input, C(output) = output). The second result is false for
// identifiers unknown to the view.
func (v *UserView) CompositeOf(module string) (string, bool) {
	if module == spec.Input || module == spec.Output {
		return module, true
	}
	c, ok := v.owner[module]
	return c, ok
}

// CompositeIndex returns the position, in Composites(), of the composite
// module containing the given module. The second result is false for
// identifiers the view does not partition, INPUT and OUTPUT included.
func (v *UserView) CompositeIndex(module string) (int32, bool) {
	i, ok := v.ownerID[module]
	return i, ok
}

// Members returns the sorted member modules of a composite (nil if unknown).
func (v *UserView) Members(composite string) []string {
	ms := v.blocks[composite]
	if ms == nil {
		return nil
	}
	return append([]string(nil), ms...)
}

// Composites returns all composite names, sorted.
func (v *UserView) Composites() []string {
	return append([]string(nil), v.names...)
}

// Blocks returns a deep copy of the partition.
func (v *UserView) Blocks() map[string][]string {
	out := make(map[string][]string, len(v.blocks))
	for name, members := range v.blocks {
		out[name] = append([]string(nil), members...)
	}
	return out
}

// BlockOf returns the module -> composite assignment as a fresh map.
func (v *UserView) BlockOf() map[string]string {
	out := make(map[string]string, len(v.owner))
	for m, c := range v.owner {
		out[m] = c
	}
	return out
}

// Induced returns the induced specification U(G_w): one node per composite
// plus the pass-through INPUT and OUTPUT, with an edge A -> B whenever some
// module of A has a specification edge to some module of B (A != B).
func (v *UserView) Induced() *graph.Graph {
	return v.spec.Graph().Quotient(v.owner, false)
}

// InducedSpec materializes the induced workflow as a first-class
// specification whose modules are the composites. A composite inherits
// KindScientific when any member is scientific, and its description lists
// the members. Because the result is an ordinary specification, views can
// be stacked: a user may build a view of an induced workflow, which is how
// the paper proposes interoperating with systems that already nest
// workflows ("by viewing each composite module as itself being a
// workflow").
func (v *UserView) InducedSpec() (*spec.Spec, error) {
	out := spec.New(v.spec.Name() + "@view")
	for _, name := range v.Composites() {
		kind := spec.KindFormatting
		for _, m := range v.blocks[name] {
			if mod, ok := v.spec.Module(m); ok && mod.Kind == spec.KindScientific {
				kind = spec.KindScientific
				break
			}
		}
		desc := "composite of " + fmt.Sprint(v.blocks[name])
		if err := out.AddModule(spec.Module{Name: name, Kind: kind, Desc: desc}); err != nil {
			return nil, err
		}
	}
	var addErr error
	v.Induced().EachEdge(func(from, to string) {
		if addErr == nil {
			addErr = out.AddEdge(from, to)
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: induced workflow invalid: %w", err)
	}
	return out, nil
}

// CompositeContaining returns the composite that holds any relevant module
// of rel, mapping each relevant module to its composite. Used by checkers.
func (v *UserView) relevantComposites(rel map[string]bool) map[string]string {
	out := make(map[string]string)
	for m := range rel {
		if c, ok := v.owner[m]; ok {
			out[m] = c
		}
	}
	return out
}

// Equal reports whether two views are the same partition (block names are
// ignored; only the grouping matters).
func (v *UserView) Equal(o *UserView) bool {
	if len(v.owner) != len(o.owner) {
		return false
	}
	// Two partitions are equal iff every pair of modules co-grouped in one
	// is co-grouped in the other; comparing canonical block keys suffices.
	can := func(u *UserView) map[string]string {
		out := make(map[string]string, len(u.owner))
		for name, members := range u.blocks {
			key := fmt.Sprint(members)
			_ = name
			for _, m := range members {
				out[m] = key
			}
		}
		return out
	}
	a, b := can(v), can(o)
	for m, k := range a {
		if b[m] != k {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a deterministic rendering.
func (v *UserView) String() string {
	names := v.Composites()
	s := "view{"
	for i, n := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%v", n, v.blocks[n])
	}
	return s + "}"
}

// UAdmin returns the finest view: every module is its own composite, named
// after itself. Under UAdmin every step and every data object is visible —
// the paper's administrator view.
func UAdmin(s *spec.Spec) *UserView {
	blocks := make(map[string][]string)
	for _, m := range s.ModuleNames() {
		blocks[m] = []string{m}
	}
	v, err := NewUserView(s, blocks)
	if err != nil {
		// Impossible for a well-formed spec; surface loudly in tests.
		panic(fmt.Sprintf("core: UAdmin construction failed: %v", err))
	}
	return v
}

// BlackBoxName is the composite name used by UBlackBox.
const BlackBoxName = "WORKFLOW"

// UBlackBox returns the coarsest view: the entire workflow in one composite.
// Only workflow inputs and final outputs are visible through it.
func UBlackBox(s *spec.Spec) (*UserView, error) {
	mods := s.ModuleNames()
	if len(mods) == 0 {
		return nil, fmt.Errorf("core: cannot build black-box view of empty spec: %w", ErrBadView)
	}
	return NewUserView(s, map[string][]string{BlackBoxName: mods})
}
