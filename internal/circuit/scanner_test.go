package circuit_test

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
)

// parser is one netlist front end with a small input.
type parser struct {
	src   string
	parse func(string) (*circuit.Circuit, error)
}

// parsers are the two netlist front ends: the text format on bbtas's
// synthesized circuit and the .bench parser on the embedded c17 file.
func parsers(t *testing.T) map[string]parser {
	t.Helper()
	b, _ := bench.ByName("bbtas")
	r, err := b.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	c17, err := os.ReadFile("benchdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]parser{
		"net":   {r.Circuit.WriteString(), circuit.ParseString},
		"bench": {string(c17), func(s string) (*circuit.Circuit, error) { return circuit.ParseBenchString("c17", s) }},
	}
}

// withComment inserts a comment line of n bytes, newline excluded, after
// the source's first line.
func withComment(src string, n int) string {
	first, rest, _ := strings.Cut(strings.TrimLeft(src, "\n"), "\n")
	return first + "\n#" + strings.Repeat("x", n-1) + "\n" + rest
}

// The parsers keep bufio.Scanner's 1 MiB line limit: a line just under it
// parses to the same circuit, a line past it fails with bufio.ErrTooLong.
func TestParseLongLine(t *testing.T) {
	for name, p := range parsers(t) {
		want, err := p.parse(p.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := p.parse(withComment(p.src, 1<<20-64))
		if err != nil {
			t.Fatalf("%s: a line under 1 MiB: %v", name, err)
		}
		if got.WriteString() != want.WriteString() {
			t.Errorf("%s: a comment line changed the circuit", name)
		}
		if _, err := p.parse(withComment(p.src, 1<<20+64)); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: a line past 1 MiB: err = %v, want bufio.ErrTooLong", name, err)
		}
	}
}

// A small netlist costs kilobytes to parse, not a 1 MiB scanner buffer.
func TestParseAllocGrowsWithInput(t *testing.T) {
	for name, p := range parsers(t) {
		per := bytesPerCall(20, func() {
			if _, err := p.parse(p.src); err != nil {
				t.Fatal(err)
			}
		})
		if per >= 64<<10 {
			t.Errorf("%s: parsing %d bytes allocates %d bytes per call, want < 64 KiB", name, len(p.src), per)
		}
	}
}

// bytesPerCall is the heap bytes one call of f allocates, averaged over n
// calls.
func bytesPerCall(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}
