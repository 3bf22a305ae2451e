package analytics

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestNoGeneratorDependency: the analyzer reads DN-Hunter's labeled flows
// only, so no figure can bypass the system under test by reading the
// synthetic generator's own records. Its non-test dependencies must not
// include the generator.
func TestNoGeneratorDependency(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	if slices.Contains(strings.Fields(string(out)), "repro/internal/synth") {
		t.Fatal("internal/analytics depends on repro/internal/synth")
	}
}
