package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ndetect/internal/exp"
)

// digests.txt holds the SHA-256 of every result document any seed can
// request, one "key digest" line each. It was produced by
// exp.AnalyzeCircuit at one worker (--write-digests). Result bytes are
// identical at every worker count, in the CLI and in the daemon, so any
// difference is a different computation.
//
//go:embed digests.txt
var committedDigests string

// digestTable maps a request key to its reference digest.
type digestTable map[string]string

func parseDigests(r io.Reader) (digestTable, error) {
	t := digestTable{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("digests line %d: want \"key sha256\"", n)
		}
		t[key] = sum
	}
	return t, sc.Err()
}

func loadDigests(path string) (digestTable, error) {
	if path == "" {
		return parseDigests(strings.NewReader(committedDigests))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseDigests(f)
}

func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// check reports whether body is the reference document for key.
func (t digestTable) check(key string, body []byte) error {
	want, ok := t[key]
	if !ok {
		return fmt.Errorf("no reference digest for %s", key)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("%s: digest %s, want %s", key, got, want)
	}
	return nil
}

// writeDigests computes the reference document of every request in every
// workload's space with exp.AnalyzeCircuit at one worker and writes the
// digest table.
func writeDigests(path string, progress io.Writer) error {
	keys := map[string]request{}
	for _, w := range workloadNames {
		for _, r := range space(w) {
			keys[r.key()] = r
		}
	}
	order := make([]string, 0, len(keys))
	for k := range keys {
		order = append(order, k)
	}
	sort.Strings(order)

	corpus, err := synthesizeCorpus(allCircuits())
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# Reference SHA-256 of every result document the benchmark can request.\n")
	b.WriteString("# Regenerate with: bash perfbench/run.sh --write-digests perfbench/digests.txt\n")
	for i, k := range order {
		r := keys[k]
		req := r.req
		req.Workers = 1
		doc, err := exp.AnalyzeCircuit(corpus.circuits[r.circuit], req)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		fmt.Fprintf(&b, "%s %s\n", k, digest(doc.Encode()))
		fmt.Fprintf(progress, "\rdigests %d/%d", i+1, len(order))
	}
	fmt.Fprintln(progress)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func allCircuits() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range workloadNames {
		for _, c := range poolCircuits(w) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}
