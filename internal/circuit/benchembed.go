package circuit

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Embedded .bench sample circuits. c17 is the smallest ISCAS-85 benchmark,
// s27 the smallest ISCAS-89 one (DFF-stripped on load), and w64 a 64-input
// combinational sample whose output cones stay narrow enough for the
// partitioned analysis — wide circuits like it are the workload the
// partition package exists for.
//
//go:embed benchdata/*.bench
var benchFS embed.FS

// EmbeddedBenchNames lists the embedded .bench samples, sorted.
func EmbeddedBenchNames() []string {
	entries, err := benchFS.ReadDir("benchdata")
	if err != nil {
		panic(err) // embedded directory is fixed at build time
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".bench"))
	}
	sort.Strings(names)
	return names
}

// sample is one embedded .bench file, parsed on first use.
type sample struct {
	once sync.Once
	c    *Circuit
	err  error
}

// samples holds one entry per embedded file, keyed by sample name.
var samples = func() map[string]*sample {
	m := make(map[string]*sample)
	for _, name := range EmbeddedBenchNames() {
		m[name] = new(sample)
	}
	return m
}()

// EmbeddedBench returns one embedded .bench sample by name (e.g. "c17").
// Each sample is parsed once per process and every caller shares the
// circuit, so it is read-only: a caller that needs to change it rebuilds
// it, as Canonicalize does.
func EmbeddedBench(name string) (*Circuit, error) {
	s, ok := samples[name]
	if !ok {
		return nil, fmt.Errorf("circuit: no embedded bench sample %q (have %s)",
			name, strings.Join(EmbeddedBenchNames(), " "))
	}
	s.once.Do(func() {
		src, err := benchFS.ReadFile("benchdata/" + name + ".bench")
		if err != nil {
			s.err = err
			return
		}
		s.c, s.err = ParseBenchString(name, string(src))
	})
	return s.c, s.err
}
