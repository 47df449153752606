package kiss_test

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/kiss"
)

// bbtasSource is the KISS2 text of the bbtas surrogate.
func bbtasSource(t *testing.T) string {
	t.Helper()
	b, _ := bench.ByName("bbtas")
	m, err := b.STG()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// withComment prepends a comment line of n bytes, newline excluded.
func withComment(src string, n int) string {
	return "#" + strings.Repeat("x", n-1) + "\n" + src
}

// The parser keeps bufio.Scanner's 1 MiB line limit: a line just under it
// parses to the same machine, a line past it fails with bufio.ErrTooLong.
func TestParseLongLine(t *testing.T) {
	src := bbtasSource(t)
	got, err := kiss.ParseString("bbtas", withComment(src, 1<<20-64))
	if err != nil {
		t.Fatalf("a line under 1 MiB: %v", err)
	}
	var sb strings.Builder
	if err := got.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != src {
		t.Error("a comment line changed the machine")
	}
	if _, err := kiss.ParseString("bbtas", withComment(src, 1<<20+64)); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a line past 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}

// A small machine costs kilobytes to parse, not a 1 MiB scanner buffer.
func TestParseAllocGrowsWithInput(t *testing.T) {
	src := bbtasSource(t)
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := kiss.ParseString("bbtas", src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("parsing %d bytes allocates %d bytes per call, want < 64 KiB", len(src), per)
	}
}
