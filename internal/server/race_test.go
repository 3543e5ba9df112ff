//go:build race

package server

// raceEnabled reports whether the tests run under the race detector, which
// makes allocation counts meaningless.
const raceEnabled = true
