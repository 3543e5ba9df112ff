package core

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// This file implements the view-evolution operations of Sections IV and
// VII: "As the user's needs evolve, he may modify (add or remove) the set
// of modules he considers to be relevant", and "our approach can be used in
// conjunction with other composite module construction techniques ... by
// viewing each composite module as itself being a workflow and marking
// relevant atomic modules contained within it".

// AddRelevant rebuilds the view after flagging one more module relevant —
// the interactive UserViewBuilder loop of the prototype, where the user
// "visualizes the new user view each time he flags or unflags a module".
func AddRelevant(s *spec.Spec, relevant []string, module string) (*UserView, []string, error) {
	for _, r := range relevant {
		if r == module {
			v, err := BuildRelevant(s, relevant)
			return v, relevant, err
		}
	}
	next := append(append([]string(nil), relevant...), module)
	sort.Strings(next)
	v, err := BuildRelevant(s, next)
	return v, next, err
}

// RemoveRelevant rebuilds the view after unflagging a module.
func RemoveRelevant(s *spec.Spec, relevant []string, module string) (*UserView, []string, error) {
	next := make([]string, 0, len(relevant))
	for _, r := range relevant {
		if r != module {
			next = append(next, r)
		}
	}
	v, err := BuildRelevant(s, next)
	return v, next, err
}

// SubSpec extracts one composite of a view as a standalone workflow
// specification: the composite's members keep their names and the edges
// among them; every edge arriving from outside the composite becomes an
// INPUT edge and every edge leaving it an OUTPUT edge. This is the
// "viewing each composite module as itself being a workflow" construction.
func SubSpec(v *UserView, composite string) (*spec.Spec, error) {
	members := v.Members(composite)
	if members == nil {
		return nil, fmt.Errorf("core: unknown composite %q: %w", composite, ErrBadView)
	}
	inside := toSet(members)
	sub := spec.New(v.spec.Name() + "/" + composite)
	for _, m := range members {
		mod, _ := v.spec.Module(m)
		if err := sub.AddModule(mod); err != nil {
			return nil, err
		}
	}
	var addErr error
	v.spec.Graph().EachEdge(func(from, to string) {
		if addErr != nil {
			return
		}
		switch {
		case inside[from] && inside[to]:
			addErr = sub.AddEdge(from, to)
		case inside[to]: // entering the composite
			if !sub.Graph().HasEdge(spec.Input, to) {
				addErr = sub.AddEdge(spec.Input, to)
			}
		case inside[from]: // leaving the composite
			if !sub.Graph().HasEdge(from, spec.Output) {
				addErr = sub.AddEdge(from, spec.Output)
			}
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("core: composite %q does not form a valid sub-workflow: %w", composite, err)
	}
	return sub, nil
}

// RefineComposite splits one composite of a view by running
// RelevUserViewBuilder *inside* it: the composite is treated as its own
// workflow (SubSpec), the given modules are marked relevant within it, and
// the resulting sub-view's blocks replace the original composite. Relevant
// sub-blocks keep their relevant module's name; non-relevant sub-blocks are
// namespaced as <composite>/NRi.
//
// The refined view is a strictly finer (or equal) partition, so everything
// visible before stays visible; hierarchy lets a user drill into exactly
// one box of their provenance graph.
func RefineComposite(v *UserView, composite string, relevantInside []string) (*UserView, error) {
	sub, err := SubSpec(v, composite)
	if err != nil {
		return nil, err
	}
	for _, r := range relevantInside {
		if !sub.HasModule(r) {
			return nil, fmt.Errorf("core: module %q is not inside composite %q: %w", r, composite, ErrBadRelevant)
		}
	}
	subView, err := BuildRelevant(sub, relevantInside)
	if err != nil {
		return nil, err
	}
	blocks := v.Blocks()
	delete(blocks, composite)
	relSet := toSet(relevantInside)
	for _, name := range subView.Composites() {
		members := subView.Members(name)
		newName := name
		if !containsRelevant(members, relSet) {
			newName = composite + "/" + name
		}
		if _, clash := blocks[newName]; clash {
			newName = composite + "/" + newName
		}
		blocks[newName] = members
	}
	return NewUserView(v.spec, blocks)
}

// Refines reports whether view a is a refinement of view b: every block of
// a is contained in some block of b. UAdmin refines every view; every view
// refines UBlackBox.
func Refines(a, b *UserView) bool {
	return (a.spec == b.spec || a.spec.Name() == b.spec.Name()) && a.within(b)
}

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

func containsRelevant(members []string, rel map[string]bool) bool {
	for _, m := range members {
		if rel[m] {
			return true
		}
	}
	return false
}
