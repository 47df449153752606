package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, body := []byte(`{"id":"abc"}`), []byte("{\n  \"schema\": \"x\"\n}\n")
	if err := s.PutResult("abc", meta, body); err != nil {
		t.Fatal(err)
	}
	gm, gb, ok := s.GetResult("abc")
	if !ok || !bytes.Equal(gm, meta) || !bytes.Equal(gb, body) {
		t.Fatalf("round trip: ok=%v meta=%q body=%q", ok, gm, gb)
	}
	if _, _, ok := s.GetResult("missing"); ok {
		t.Fatal("phantom hit")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process over the same directory serves the same bytes.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gm, gb, ok = s2.GetResult("abc")
	if !ok || !bytes.Equal(gm, meta) || !bytes.Equal(gb, body) {
		t.Fatal("restart lost the artifact")
	}
	ctr := s2.Counters()
	if ctr.Results.Files != 1 || ctr.Results.Hits != 1 || ctr.Results.Misses != 0 {
		t.Fatalf("counters after restart: %+v", ctr.Results)
	}
}

// A corrupt result file is a miss, and the slot is reclaimed.
func TestCorruptResultIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("abc", []byte("m"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ResultTier, "abc.res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.GetResult("abc"); ok {
		t.Fatal("corrupt artifact served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact not deleted")
	}
}

// The byte budget evicts least-recently-used artifacts first, and a
// freshly written artifact always survives its own put.
func TestSizeBoundedLRUEviction(t *testing.T) {
	// Envelope overhead is 18 bytes; three ~100-byte artifacts fit a
	// 400-byte budget, the fourth evicts the least recently used.
	s := openTemp(t, Options{MaxBytes: 400})
	blob := func(c byte) []byte { return bytes.Repeat([]byte{c}, 100) }
	for _, id := range []string{"a", "b", "c"} {
		if err := s.PutResult(id, nil, blob(id[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is now the LRU.
	if _, _, ok := s.GetResult("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := s.PutResult("d", nil, blob('d')); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if _, _, ok := s.GetResult(id); ok != want {
			t.Fatalf("after eviction, %q present=%v want %v", id, ok, want)
		}
	}
	ctr := s.Counters()
	if ctr.Results.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", ctr.Results.Evictions)
	}
	if ctr.Bytes > 400 {
		t.Fatalf("bytes %d over budget", ctr.Bytes)
	}

	// One artifact larger than the whole budget still survives its put.
	if err := s.PutResult("huge", nil, bytes.Repeat([]byte{'h'}, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.GetResult("huge"); !ok {
		t.Fatal("oversized artifact evicted itself")
	}
}

// No .tmp litter after writes; a leftover .tmp from a crash is cleaned on
// Open and never indexed.
func TestAtomicWriteHygiene(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("abc", nil, []byte("body")); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, ResultTier, "torn.res.123.tmp")
	if err := os.WriteFile(torn, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn temp file survived reopen")
	}
	des, err := os.ReadDir(filepath.Join(dir, ResultTier))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp") {
			t.Fatalf("temp litter: %s", de.Name())
		}
	}
	if ctr := s2.Counters(); ctr.Results.Files != 1 {
		t.Fatalf("files = %d, want 1", ctr.Results.Files)
	}
}

// Store.Universe is a load-or-build-and-save source: the first call
// constructs and persists, later calls (and restarts) decode the artifact
// into an identical universe.
func TestStoreUniverseSource(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, want := c17Universe(t)
	hash := circuit.Hash(c)

	u1, err := s.Universe(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctr := s.Counters()
	if ctr.Universes.Puts != 1 || ctr.Universes.Misses != 1 {
		t.Fatalf("first call should build and persist: %+v", ctr.Universes)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := s2.Universe(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ctr := s2.Counters(); ctr.Universes.Hits != 1 || ctr.Universes.Puts != 0 {
		t.Fatalf("restart should load, not rebuild: %+v", ctr.Universes)
	}
	for _, u := range []*ndetect.CircuitUniverse{u1, u2} {
		if len(u.Targets) != len(want.Targets) || len(u.Untargeted) != len(want.Untargeted) {
			t.Fatal("universe shape differs from direct construction")
		}
		for i := range want.Untargeted {
			if u.Untargeted[i].Name != want.Untargeted[i].Name || !u.Untargeted[i].Set().Equal(want.Untargeted[i].Set()) {
				t.Fatalf("untargeted %d differs", i)
			}
		}
	}

	// A corrupted artifact rebuilds instead of failing. The default model
	// uses the pre-registry key shape, so old artifacts stay warm.
	path := filepath.Join(dir, UniverseTier, universeKey(hash, ""))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Universe(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1}); err != nil {
		t.Fatalf("corrupt artifact should rebuild: %v", err)
	}
	if ctr := s2.Counters(); ctr.Universes.Puts != 1 {
		t.Fatalf("rebuild should persist a fresh artifact: %+v", ctr.Universes)
	}
}

// Distinct fault models occupy distinct universe-tier slots, and a
// model-skewed artifact in a slot (decode failure) rebuilds rather than
// binding wrong data.
func TestStoreUniverseModelSkewRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := c17Universe(t)
	hash := circuit.Hash(c)
	def := fault.Default()
	tr, err := fault.Resolve("transition")
	if err != nil {
		t.Fatal(err)
	}

	// The file names stay byte for byte what earlier stores wrote, so
	// their artifacts stay warm.
	if got := universeKey(hash, def.ID()); got != hash+"-m0.u" || universeKey(hash, "") != got {
		t.Fatalf("default model key %q, want the legacy shape %q", got, hash+"-m0.u")
	}
	if got := universeKey(hash, tr.ID()); got != hash+"-m0-transition.u" {
		t.Fatalf("transition model key %q, want %q", got, hash+"-m0-transition.u")
	}

	if _, err := s.Universe(c, def, ndetect.AnalyzeOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// Plant the default-model artifact in the transition slot: the decoder
	// must detect the skew, drop it, and rebuild the right universe.
	artifact, ok := s.GetUniverse(hash, "")
	if !ok {
		t.Fatal("default artifact missing")
	}
	if err := s.PutUniverse(hash, tr.ID(), artifact); err != nil {
		t.Fatal(err)
	}
	u, err := s.Universe(c, tr, ndetect.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatalf("skewed artifact should rebuild: %v", err)
	}
	if u.Model.ID() != tr.ID() || u.Size != c.VectorSpaceSize()*c.VectorSpaceSize() {
		t.Fatalf("rebuilt universe is model %q size %d", u.Model.ID(), u.Size)
	}
	// The rebuilt artifact decodes cleanly on the next load.
	if _, err := s.Universe(c, tr, ndetect.AnalyzeOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
}
