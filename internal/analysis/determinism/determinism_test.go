package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "a")
}

// TestAllowDirectives pins the directive contract: justified allows
// silence findings on their line and the next, and a directive missing its
// `-- reason`, naming several or unknown analyzers, or trying to silence
// the directive checker itself is a diagnostic in its own right.
func TestAllowDirectives(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "allow")
}

func TestScope(t *testing.T) {
	for _, path := range determinism.ScopedPackages {
		if !determinism.InScope(path) {
			t.Errorf("InScope(%q) = false, want true", path)
		}
	}
	for _, path := range []string{"repro/pkg/ctsserver", "repro/internal/obs", "repro/cmd/ctsd", "other/pkg/cts"} {
		if determinism.InScope(path) {
			t.Errorf("InScope(%q) = true, want false", path)
		}
	}
}
