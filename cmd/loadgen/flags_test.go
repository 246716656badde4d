package main

import (
	"testing"

	"github.com/eyeorg/eyeorg/internal/flagdoc"
)

// TestDocsFlagsRegistered holds this binary's command line and its
// documentation together, both ways; see flagdoc.Check.
func TestDocsFlagsRegistered(t *testing.T) {
	fs, _ := newFlags()
	for _, problem := range flagdoc.Check(fs, "../..") {
		t.Error(problem)
	}
}
