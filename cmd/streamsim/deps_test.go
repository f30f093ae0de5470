package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoNetworkPackages: neither command links a network package. A batch
// simulator uses none, and each costs every run its init and pages: net/http
// alone links 107 packages and adds ≈ 4.6 MB to every run's peak RSS.
func TestNoNetworkPackages(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "./cmd/streamsim", "./cmd/experiments")
	cmd.Dir = repoRoot
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		t.Fatalf("go list -deps: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "crypto/tls" {
			t.Errorf("the commands link %s", pkg)
		}
	}
}
