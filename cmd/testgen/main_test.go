package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTestgenByName generates test sets by name for an FSM surrogate and
// for an embedded .bench sample, which resolve through the same fallback
// as ndetect, faultsim and the daemon.
func TestTestgenByName(t *testing.T) {
	for _, name := range []string{"lion", "c17"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", name, "-n", "2", "-workers", "1"}, &stdout, &stderr); code != 0 {
			t.Fatalf("testgen -bench %s: exit %d: %s", name, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if !strings.HasPrefix(lines[0], "# compact 2-detection test set for "+name) || len(lines) < 3 {
			t.Errorf("testgen -bench %s printed:\n%s", name, stdout.String())
		}
		if !strings.Contains(stderr.String(), "bridging coverage") {
			t.Errorf("testgen -bench %s: no summary on stderr: %s", name, stderr.String())
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-bench", "nope"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), `unknown benchmark "nope"`) {
		t.Errorf("testgen -bench nope: exit %d: %s", code, stderr.String())
	}
}
