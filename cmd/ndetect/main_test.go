package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndetect/internal/exp"
)

// writeKISS2 writes a KISS2 source to a temporary file and returns its path.
func writeKISS2(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.kiss2")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wideKISS2 is a deterministic 23-input, 4-state machine: 25 circuit
// inputs with its two state bits. Each state branches on one input of its
// own, so every output cone needs at most 6 inputs.
func wideKISS2() string {
	var s strings.Builder
	s.WriteString(".i 23\n.o 1\n")
	states := []string{"a", "b", "c", "d"}
	for i, pos := range []int{0, 7, 14, 22} {
		taken := []byte(strings.Repeat("-", 23))
		taken[pos] = '1'
		stay := []byte(strings.Repeat("-", 23))
		stay[pos] = '0'
		fmt.Fprintf(&s, "%s %s %s 1\n", taken, states[i], states[(i+1)%4])
		fmt.Fprintf(&s, "%s %s %s 0\n", stay, states[i], states[i])
	}
	s.WriteString(".e\n")
	return s.String()
}

// `ndetect -kiss2 M -partition 16` on a machine wider than 24 inputs
// loads it and runs the partitioned analysis.
func TestLoadKISS2WidePartitions(t *testing.T) {
	c, err := loadCircuit("", "", writeKISS2(t, wideKISS2()), "", false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if c.NumInputs() != 25 {
		t.Fatalf("%d circuit inputs, want 25", c.NumInputs())
	}
	doc, err := exp.AnalyzeCircuit(c, exp.AnalysisRequest{Kind: exp.PartitionedAnalysis, MaxInputs: 16, Workers: 1})
	if err != nil {
		t.Fatalf("partitioned analysis: %v", err)
	}
	if len(doc.Partitioned.Parts) == 0 {
		t.Fatal("partitioned analysis produced no parts")
	}
}

// A nondeterministic machine is refused before any analysis: state a's
// cubes 1- and -1 overlap at input 11 with different next states.
func TestLoadKISS2RejectsNondeterministic(t *testing.T) {
	_, err := loadCircuit("", "", writeKISS2(t, ".i 2\n.o 1\n1- a b 0\n-1 a a 0\n.e\n"), "", false)
	if err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("load: %v, want a determinism error", err)
	}
}
