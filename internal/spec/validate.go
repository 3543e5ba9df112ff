package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// Validation errors. They wrap the package-level sentinels so callers can
// classify failures with errors.Is.
var (
	// ErrBadModule reports an invalid module definition.
	ErrBadModule = errors.New("spec: invalid module")
	// ErrBadEdge reports an invalid edge definition.
	ErrBadEdge = errors.New("spec: invalid edge")
	// ErrNotConnected reports a module that is not on any INPUT->OUTPUT path.
	ErrNotConnected = errors.New("spec: module not on an input-output path")
	// ErrNoOutputPath reports that OUTPUT is unreachable from INPUT.
	ErrNoOutputPath = errors.New("spec: no path from input to output")
)

// Validate checks the structural well-formedness required by the paper's
// model: INPUT is a source, OUTPUT is a sink (enforced by construction), and
// every module lies on some path from INPUT to OUTPUT.
func (s *Spec) Validate() error {
	if s.NumModules() == 0 {
		if !s.g.HasEdge(Input, Output) {
			return fmt.Errorf("spec %q: empty specification: %w", s.name, ErrNoOutputPath)
		}
		return nil
	}
	fwd := s.g.Reach(Input)
	if !fwd[Output] {
		return fmt.Errorf("spec %q: %w", s.name, ErrNoOutputPath)
	}
	bwd := s.g.ReachBack(Output)
	for _, name := range s.ModuleNames() {
		if !fwd[name] {
			return fmt.Errorf("spec %q: module %q unreachable from input: %w", s.name, name, ErrNotConnected)
		}
		if !bwd[name] {
			return fmt.Errorf("spec %q: module %q cannot reach output: %w", s.name, name, ErrNotConnected)
		}
	}
	return nil
}

// IsAcyclic reports whether the specification contains no loops.
func (s *Spec) IsAcyclic() bool { return s.g.IsAcyclic() }

// LoopCount returns the number of distinct back edges found by a
// deterministic DFS — the number of loop constructs for the simple-loop
// specifications produced by the generator.
func (s *Spec) LoopCount() int { return len(s.g.BackEdges()) }

// Fingerprint returns a short stable hash of the specification's structure,
// used by the warehouse to detect that a run refers to a different version
// of a same-named specification. It is the first 16 hex characters of a
// SHA-256: short enough to embed in identifiers, long enough to make
// accidental collisions unlikely.
func (s *Spec) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte(s.name))
	for _, m := range s.Modules() {
		h.Write([]byte("|m:" + m.Name + ":" + string(m.Kind)))
	}
	for _, e := range s.g.Edges() {
		h.Write([]byte("|e:" + e.From + ">" + e.To))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
