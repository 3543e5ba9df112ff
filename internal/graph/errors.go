package graph

import "errors"

// ErrCyclic is returned by DAG-only algorithms applied to a cyclic graph.
// Callers test it with errors.Is so that the higher layers can wrap it with
// context.
var ErrCyclic = errors.New("graph: cycle detected")
