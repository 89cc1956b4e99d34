package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestDeployCleansUpAfterAFailedStart checks the error path of deploy: a
// backend that exits before it listens (as rtf-serve does on a refused
// flag set) fails the deployment with an error naming it, and the data
// directory made for it is removed.
func TestDeployCleansUpAfterAFailedStart(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false binary on PATH")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	topo, _ := single(nil)
	dep, err := deploy(topo, nil, bin, "")
	if dep != nil || err == nil || !strings.Contains(err.Error(), "b0 exited before reporting a listen address") {
		t.Fatalf("deploy = %v, %v; want b0's startup failure", dep, err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("deploy left %d entries in TMPDIR, want its data directory removed", len(left))
	}
}
