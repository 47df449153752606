package exp

import (
	"fmt"
	"strconv"
	"strings"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
	"ndetect/internal/sim"
)

// The sweep engine (DESIGN.md §11).
//
// The paper itself is a sweep: both detection definitions and every
// n = 1..NMax are evaluated over the same exhaustive sets T(f), T(g) per
// circuit. Per-variant analysis recomputes that universe for every
// (NMax, K, Seed, Definition, Ge11Limit) point even though none of those
// options influence it. Sweep restores the paper's cost shape: one
// universe construction (or one artifact-store load) shared by all S
// variants of a fault model, each variant's document still byte-identical
// to its cold one-shot run — the universe is a pure function of the
// circuit and model, so sharing the object is indistinguishable from
// rebuilding it.

// SweepOptions configures Sweep. Neither field is part of any variant's
// result identity.
type SweepOptions struct {
	// Workers is the §5 budget for the whole sweep: variants fan out
	// across min(Workers, variants) goroutines and the budget is split
	// between them, exactly the circuits-within-a-run rule (0 = one per
	// CPU, 1 = strictly serial).
	Workers int
	// Universes, when non-nil, backs the sweep's universes — pass the
	// artifact store to make the sweep warm-startable. Sweep asks it once
	// per fault model, before any variant runs.
	Universes UniverseSource
}

// Sweep runs a grid of result-identity option variants over one circuit,
// constructing (or loading) the exhaustive universe exactly once per fault
// model and deriving every variant from the shared T-sets. Documents are
// returned in variant order, each byte-identical to AnalyzeCircuit on the
// same (circuit, variant) — at any worker count.
//
// Variants must be worst-case or average analyses: the partitioned
// pipeline builds per-part universes and has nothing to share here.
func Sweep(c *circuit.Circuit, variants []AnalysisRequest, opts SweepOptions) ([]*report.Analysis, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("exp: empty sweep")
	}
	norm := make([]AnalysisRequest, len(variants))
	for i, v := range variants {
		v.Workers, v.Progress, v.Universes = 0, nil, nil
		if err := v.Normalize(); err != nil {
			return nil, fmt.Errorf("exp: sweep variant %d: %w", i, err)
		}
		if v.Kind == PartitionedAnalysis {
			return nil, fmt.Errorf("exp: sweep variant %d: partitioned analyses cannot share an exhaustive universe", i)
		}
		norm[i] = v
	}

	// Canonicalize once up front: AnalyzeCircuit's own canonicalization is
	// a fixed point on the result, so every variant sees this instance and
	// the universes built for it.
	c, err := circuit.Canonicalize(c)
	if err != nil {
		return nil, fmt.Errorf("exp: canonicalize: %w", err)
	}

	// Resolve each model's universe before the fan-out, one at a time and
	// in variant order, with the sweep's whole §5 budget: the universe is
	// the dominant shared stage and no variant can start without it.
	// Worker counts never influence the universe built (§7).
	total := sim.ResolveWorkers(opts.Workers)
	aopts := ndetect.AnalyzeOptions{Workers: total}
	shared := sweepUniverses{}
	for _, v := range norm {
		m, err := fault.Resolve(v.FaultModel) // Normalize already vetted the ID
		if err != nil {
			return nil, err
		}
		if _, ok := shared[m.ID()]; ok {
			continue
		}
		var u *ndetect.CircuitUniverse
		if opts.Universes != nil {
			u, err = opts.Universes.Universe(c, m, aopts)
		} else {
			u, err = ndetect.BuildUniverse(c, m, aopts)
		}
		if err != nil {
			return nil, err
		}
		shared[m.ID()] = u
	}

	return fanOut(total, len(norm), func(i, inner int) (*report.Analysis, error) {
		req := norm[i]
		req.Workers = inner
		req.Universes = shared
		return AnalyzeCircuit(c, req)
	})
}

// sweepUniverses serves the universes Sweep resolved up front, one per
// fault model ID. It is read-only once the fan-out starts.
type sweepUniverses map[string]*ndetect.CircuitUniverse

// Universe implements UniverseSource.
func (s sweepUniverses) Universe(_ *circuit.Circuit, m fault.Model, _ ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	return s[m.ID()], nil
}

// maxSweepVariants bounds a parsed grid: a sweep is a deliberate batch,
// not an accidental combinatorial explosion.
const maxSweepVariants = 4096

// ParseSweep parses a sweep grid specification into the variant list its
// cartesian product describes. The format is semicolon-separated
// `key=values` fields; values are comma-separated, and integer values may
// be `lo..hi` ranges (inclusive):
//
//	analysis=average;model=stuckat+bridge4,transition;nmax=10;seed=1..5
//
// Keys: analysis (worstcase | average; default average), model
// (fault-model IDs; default the default model), nmax, k, seed, def, ge11
// — the result-identity options of DESIGN.md §7. Omitted keys take the usual
// defaults at Normalize time. Variants enumerate with the later keys of
// the fixed order analysis, model, nmax, k, seed, def, ge11 varying
// fastest, then normalize and de-duplicate (a worstcase variant ignores
// every numeric option, so a grid crossing `analysis=worstcase,average`
// with seeds collapses the worst-case side to one variant).
func ParseSweep(spec string) ([]AnalysisRequest, error) {
	kinds := []AnalysisKind{AverageAnalysis}
	models := []string{""}
	grid := map[string][]int64{}
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, vals, ok := strings.Cut(field, "=")
		key = strings.TrimSpace(key)
		if !ok || vals == "" {
			return nil, fmt.Errorf("exp: sweep field %q: want key=values", field)
		}
		if seen[key] {
			return nil, fmt.Errorf("exp: sweep key %q repeated", key)
		}
		seen[key] = true
		if key == "analysis" {
			kinds = kinds[:0]
			for _, v := range strings.Split(vals, ",") {
				switch k := AnalysisKind(strings.TrimSpace(v)); k {
				case WorstCaseAnalysis, AverageAnalysis:
					kinds = append(kinds, k)
				default:
					return nil, fmt.Errorf("exp: sweep analysis %q (want worstcase or average)", v)
				}
			}
			continue
		}
		if key == "model" {
			models = models[:0]
			for _, v := range strings.Split(vals, ",") {
				id := strings.TrimSpace(v)
				if _, err := fault.Resolve(id); err != nil {
					return nil, fmt.Errorf("exp: sweep model %q (have %v)", id, fault.ModelIDs())
				}
				models = append(models, id)
			}
			continue
		}
		switch key {
		case "nmax", "k", "seed", "def", "ge11":
		default:
			return nil, fmt.Errorf("exp: unknown sweep key %q (want analysis, model, nmax, k, seed, def or ge11)", key)
		}
		ints, err := parseIntList(vals)
		if err != nil {
			return nil, fmt.Errorf("exp: sweep key %q: %w", key, err)
		}
		grid[key] = ints
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("exp: empty sweep spec")
	}

	// Enumerate the product in fixed key order, later keys fastest. The
	// grid map is only ever read by literal key through axis() — it is
	// never ranged — so variant order is a pure function of the spec
	// string and maporder has nothing to flag here.
	axis := func(key string) []int64 {
		if vs := grid[key]; len(vs) > 0 {
			return vs
		}
		return []int64{0} // 0 = "use the Normalize default"
	}
	// The cap bounds the raw product — i.e. the enumeration work itself —
	// not just the post-deduplication output: a grid of collapsing
	// variants (a worst-case axis crossed with huge numeric ranges) must
	// not spin through billions of normalizations to emit one.
	total := len(kinds) * len(models)
	if total > maxSweepVariants {
		return nil, fmt.Errorf("exp: sweep grid exceeds %d variants", maxSweepVariants)
	}
	for _, key := range []string{"nmax", "k", "seed", "def", "ge11"} {
		total *= len(axis(key)) // each factor ≤ maxSweepVariants: no overflow
		if total > maxSweepVariants {
			return nil, fmt.Errorf("exp: sweep grid exceeds %d variants", maxSweepVariants)
		}
	}
	var out []AnalysisRequest
	ids := map[identity]bool{}
	for _, kind := range kinds {
		for _, model := range models {
			for _, nmax := range axis("nmax") {
				for _, k := range axis("k") {
					for _, seed := range axis("seed") {
						for _, def := range axis("def") {
							for _, ge11 := range axis("ge11") {
								req := AnalysisRequest{
									Kind: kind, FaultModel: model,
									NMax: int(nmax), K: int(k), Seed: seed,
									Definition: int(def), Ge11Limit: int(ge11),
								}
								if err := req.Normalize(); err != nil {
									return nil, fmt.Errorf("exp: sweep variant %+v: %w", req, err)
								}
								id := identity{req.Kind, req.IdentityOptions()}
								if ids[id] {
									continue
								}
								ids[id] = true
								out = append(out, req)
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// identity is a variant's result identity, used to de-duplicate grids.
type identity struct {
	kind AnalysisKind
	opts report.Options
}

// parseIntList parses comma-separated integers and inclusive lo..hi
// ranges.
func parseIntList(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := strings.Cut(part, "..")
		a, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(strings.TrimSpace(hi), 10, 64); err != nil {
				return nil, fmt.Errorf("bad range %q", part)
			}
			if b < a {
				return nil, fmt.Errorf("descending range %q", part)
			}
		}
		// b ≥ a, so a true span beyond int64 shows up as a negative
		// difference — reject it with the same cap message.
		if span := b - a; span < 0 || span >= maxSweepVariants {
			return nil, fmt.Errorf("range %q exceeds %d values", part, maxSweepVariants)
		}
		// Count up from a by offset (a+i ≤ b never overflows); v++ on the
		// value itself would wrap past MaxInt64 endpoints.
		for i := int64(0); i <= b-a; i++ {
			out = append(out, a+i)
		}
	}
	return out, nil
}
