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
// modules. Views are immutable once constructed. The partition is held
// once, on the ids of the specification's module table: the composite
// names sorted, and for every module the position of its composite.
type UserView struct {
	spec  *spec.Spec
	mods  *modules
	names []string // composite names, sorted
	owner []int32  // module id -> position of its composite in names
}

// NewUserView constructs a view over s from the given blocks and validates
// that they form a partition of the modules: every module appears in exactly
// one block, blocks are non-empty, and block names neither use the reserved
// INPUT/OUTPUT identifiers nor shadow a module outside the block.
func NewUserView(s *spec.Spec, blocks map[string][]string) (*UserView, error) {
	return newUserView(s, newModules(s), blocks)
}

func newUserView(s *spec.Spec, t *modules, blocks map[string][]string) (*UserView, error) {
	v := &UserView{spec: s, mods: t, owner: make([]int32, t.n)}
	for name := range blocks {
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	for i := range v.owner {
		v.owner[i] = -1
	}
	for c, name := range v.names {
		if name == spec.Input || name == spec.Output {
			return nil, fmt.Errorf("core: composite name %q is reserved: %w", name, ErrBadView)
		}
		if len(blocks[name]) == 0 {
			return nil, fmt.Errorf("core: composite %q is empty: %w", name, ErrBadView)
		}
		for _, m := range blocks[name] {
			id, ok := t.module(m)
			if !ok {
				return nil, fmt.Errorf("core: composite %q contains unknown module %q: %w", name, m, ErrBadView)
			}
			if prev := v.owner[id]; prev >= 0 {
				return nil, fmt.Errorf("core: module %q in both %q and %q: %w", m, v.names[prev], name, ErrBadView)
			}
			v.owner[id] = int32(c)
		}
	}
	for id, c := range v.owner {
		if c < 0 {
			return nil, fmt.Errorf("core: module %q not covered by any composite: %w", t.names[id], ErrBadView)
		}
	}
	// A block may be named after a module only if that module is a member;
	// otherwise the induced graph would silently conflate two identities.
	for c, name := range v.names {
		if id, ok := t.module(name); ok && v.owner[id] != int32(c) {
			return nil, fmt.Errorf("core: composite %q shadows module %q outside it: %w", name, name, ErrBadView)
		}
	}
	return v, nil
}

// Spec returns the specification the view partitions.
func (v *UserView) Spec() *spec.Spec { return v.spec }

// Size returns |U|, the number of composite modules.
func (v *UserView) Size() int { return len(v.names) }

// CompositeOf returns the composite module containing the given module, or
// the module itself when it is INPUT or OUTPUT (the paper's convention
// C(input) = input, C(output) = output). The second result is false for
// identifiers unknown to the view.
func (v *UserView) CompositeOf(module string) (string, bool) {
	if module == spec.Input || module == spec.Output {
		return module, true
	}
	if c, ok := v.CompositeIndex(module); ok {
		return v.names[c], true
	}
	return "", false
}

// CompositeIndex returns the position, in Composites(), of the composite
// module containing the given module. The second result is false for
// identifiers the view does not partition, INPUT and OUTPUT included.
func (v *UserView) CompositeIndex(module string) (int32, bool) {
	if id, ok := v.mods.module(module); ok {
		return v.owner[id], true
	}
	return 0, false
}

// Members returns the sorted member modules of a composite (nil if unknown).
func (v *UserView) Members(composite string) []string {
	var out []string
	if c := sort.SearchStrings(v.names, composite); c < len(v.names) && v.names[c] == composite {
		for id, o := range v.owner {
			if int(o) == c {
				out = append(out, v.mods.names[id])
			}
		}
	}
	return out
}

// Composites returns all composite names, sorted.
func (v *UserView) Composites() []string {
	return append([]string(nil), v.names...)
}

// Blocks returns the partition as a fresh map from composite name to its
// sorted members.
func (v *UserView) Blocks() map[string][]string {
	out := make(map[string][]string, len(v.names))
	for id, c := range v.owner {
		out[v.names[c]] = append(out[v.names[c]], v.mods.names[id])
	}
	return out
}

// BlockOf returns the module -> composite assignment as a fresh map.
func (v *UserView) BlockOf() map[string]string {
	out := make(map[string]string, len(v.owner))
	for id, c := range v.owner {
		out[v.mods.names[id]] = v.names[c]
	}
	return out
}

// Induced returns the induced specification U(G_w): one node per composite
// plus the pass-through INPUT and OUTPUT, with an edge A -> B whenever some
// module of A has a specification edge to some module of B (A != B).
func (v *UserView) Induced() *graph.Graph {
	return v.spec.Graph().Quotient(v.BlockOf(), false)
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
	blocks := v.Blocks()
	for _, name := range v.names {
		kind := spec.KindFormatting
		for _, m := range blocks[name] {
			if mod, ok := v.spec.Module(m); ok && mod.Kind == spec.KindScientific {
				kind = spec.KindScientific
				break
			}
		}
		desc := "composite of " + fmt.Sprint(blocks[name])
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

// Equal reports whether two views are the same partition (block names are
// ignored; only the grouping matters).
func (v *UserView) Equal(o *UserView) bool {
	return len(v.owner) == len(o.owner) && v.within(o) && o.within(v)
}

// within reports whether every composite of v lies inside one of o's.
func (v *UserView) within(o *UserView) bool {
	into := make([]int32, len(v.names)) // v's composite -> o's composite + 1
	for id, c := range v.owner {
		oc, ok := o.CompositeIndex(v.mods.names[id])
		if !ok || into[c] != 0 && into[c] != oc+1 {
			return false
		}
		into[c] = oc + 1
	}
	return true
}

// String implements fmt.Stringer with a deterministic rendering.
func (v *UserView) String() string {
	blocks := v.Blocks()
	s := "view{"
	for i, n := range v.names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%v", n, blocks[n])
	}
	return s + "}"
}

// UAdmin returns the finest view: every module is its own composite, named
// after itself. Under UAdmin every step and every data object is visible —
// the paper's administrator view.
func UAdmin(s *spec.Spec) *UserView {
	t := newModules(s)
	v := &UserView{spec: s, mods: t, names: t.names[:t.n:t.n], owner: make([]int32, t.n)}
	for id := range v.owner {
		v.owner[id] = int32(id)
	}
	return v
}

// BlackBoxName is the composite name used by UBlackBox.
const BlackBoxName = "WORKFLOW"

// UBlackBox returns the coarsest view: the entire workflow in one composite.
// Only workflow inputs and final outputs are visible through it.
func UBlackBox(s *spec.Spec) (*UserView, error) {
	t := newModules(s)
	if t.n == 0 {
		return nil, fmt.Errorf("core: cannot build black-box view of empty spec: %w", ErrBadView)
	}
	return newUserView(s, t, map[string][]string{BlackBoxName: t.names[:t.n]})
}
