package synth

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustCube(t *testing.T, s string) Cube {
	t.Helper()
	c, err := NewCube(s)
	if err != nil {
		t.Fatalf("NewCube(%q): %v", s, err)
	}
	return c
}

func TestNewCubeAndString(t *testing.T) {
	for _, s := range []string{"01-", "----", "1", "0", "10-01"} {
		c := mustCube(t, s)
		if got := c.format(len(s)); got != s {
			t.Fatalf("round trip %q → %q", s, got)
		}
	}
	if _, err := NewCube("01x"); err == nil {
		t.Fatal("NewCube accepted bad character")
	}
}

func TestCubeMatches(t *testing.T) {
	c := mustCube(t, "1-0") // var2=1, var0=0
	cases := []struct {
		a    uint64
		want bool
	}{
		{0b100, true}, {0b110, true}, {0b101, false}, {0b000, false},
	}
	for _, tc := range cases {
		if got := c.matches(tc.a); got != tc.want {
			t.Errorf("matches(%03b) = %v, want %v", tc.a, got, tc.want)
		}
	}
}

func TestCovers(t *testing.T) {
	wide := mustCube(t, "1--")
	narrow := mustCube(t, "1-0")
	if !wide.Covers(narrow) {
		t.Fatal("1-- must cover 1-0")
	}
	if narrow.Covers(wide) {
		t.Fatal("1-0 must not cover 1--")
	}
	if !wide.Covers(wide) {
		t.Fatal("cube must cover itself")
	}
	other := mustCube(t, "0--")
	if wide.Covers(other) || other.Covers(wide) {
		t.Fatal("disjoint cubes cover nothing")
	}
}

func TestTryMerge(t *testing.T) {
	a := mustCube(t, "10-")
	b := mustCube(t, "00-")
	m, ok := a.TryMerge(b)
	if !ok {
		t.Fatal("10- and 00- must merge")
	}
	if got := m.format(3); got != "-0-" {
		t.Fatalf("merge = %q, want -0-", got)
	}
	// Different care sets: no merge.
	if _, ok := a.TryMerge(mustCube(t, "1--")); ok {
		t.Fatal("cubes with different care sets merged")
	}
	// Distance 2: no merge.
	if _, ok := mustCube(t, "11-").TryMerge(mustCube(t, "00-")); ok {
		t.Fatal("distance-2 cubes merged")
	}
}

// format renders the cube MSB-first over width variables.
func (c Cube) format(width int) string {
	buf := make([]byte, width)
	for i := 0; i < width; i++ {
		v := uint(width - 1 - i)
		switch {
		case c.Care&(1<<v) == 0:
			buf[i] = '-'
		case c.Val&(1<<v) != 0:
			buf[i] = '1'
		default:
			buf[i] = '0'
		}
	}
	return string(buf)
}

// matches reports whether the fully specified assignment a (bit v =
// variable v) is in the cube.
func (c Cube) matches(a uint64) bool { return a&c.Care == c.Val }

// matches reports whether assignment a satisfies any cube of the cover.
func (cv Cover) matches(a uint64) bool {
	for _, c := range cv {
		if c.matches(a) {
			return true
		}
	}
	return false
}

// equivalent reports whether two covers have the same onset over width
// variables, by exhaustive enumeration (width must be small).
func (cv Cover) equivalent(other Cover, width int) bool {
	for a := uint64(0); a < 1<<uint(width); a++ {
		if cv.matches(a) != other.matches(a) {
			return false
		}
	}
	return true
}

// coverString renders the cover for diagnostics.
func (cv Cover) coverString(width int) string {
	parts := make([]string, len(cv))
	for i, c := range cv {
		parts[i] = c.format(width)
	}
	return strings.Join(parts, " + ")
}

func TestReducePreservesOnset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const width = 6
	for trial := 0; trial < 200; trial++ {
		var cv Cover
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			buf := make([]byte, width)
			for j := range buf {
				buf[j] = "01-"[rng.Intn(3)]
			}
			c, err := NewCube(string(buf))
			if err != nil {
				t.Fatal(err)
			}
			cv = append(cv, c)
		}
		red := cv.Reduce()
		if !cv.equivalent(red, width) {
			t.Fatalf("trial %d: Reduce changed the onset:\n  in:  %s\n  out: %s",
				trial, cv.coverString(width), red.coverString(width))
		}
		if len(red) > len(cv) {
			t.Fatalf("trial %d: Reduce grew the cover from %d to %d cubes", trial, len(cv), len(red))
		}
	}
}

func TestReduceMergesAdjacent(t *testing.T) {
	cv := Cover{mustCube(t, "000"), mustCube(t, "001"), mustCube(t, "010"), mustCube(t, "011")}
	red := cv.Reduce()
	if len(red) != 1 {
		t.Fatalf("Reduce produced %d cubes (%s), want 1 (0--)", len(red), red.coverString(3))
	}
	if got := red[0].format(3); got != "0--" {
		t.Fatalf("Reduce = %q, want 0--", got)
	}
}

func TestReduceDropsContained(t *testing.T) {
	cv := Cover{mustCube(t, "1--"), mustCube(t, "10-"), mustCube(t, "101")}
	red := cv.Reduce()
	if len(red) != 1 || red[0].format(3) != "1--" {
		t.Fatalf("Reduce = %s, want just 1--", red.coverString(3))
	}
}

func TestReduceEmptyCover(t *testing.T) {
	var cv Cover
	if red := cv.Reduce(); len(red) != 0 {
		t.Fatalf("Reduce(empty) = %d cubes", len(red))
	}
}

func TestQuickCoverProperties(t *testing.T) {
	mk := func(care, val uint64) Cube {
		care &= 0xff
		return Cube{Care: care, Val: val & care}
	}

	// Covers agrees with exhaustive minterm containment over 8 variables.
	coversIsContainment := func(c1, v1, c2, v2 uint64) bool {
		a, b := mk(c1, v1), mk(c2, v2)
		want := true
		for x := uint64(0); x < 256; x++ {
			if b.matches(x) && !a.matches(x) {
				want = false
				break
			}
		}
		return a.Covers(b) == want
	}
	if err := quick.Check(coversIsContainment, nil); err != nil {
		t.Error(err)
	}
}
