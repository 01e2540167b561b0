package parity_test

import (
	"testing"

	"repro/internal/parity"
)

// TestRacyCorpus runs the racy corpus on every engine: no run may print a
// value its program never stored, and under -race none may race in Go
// terms, whatever the Tetra program does.
func TestRacyCorpus(t *testing.T) {
	parity.Matrix(t, "library", parity.Racy(false), parity.Library)
}
