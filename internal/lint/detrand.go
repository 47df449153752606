package lint

import (
	"go/ast"
	"strings"
)

// detrand: analysis results are pure functions of (circuit, identity
// options, seed) — DESIGN.md §7. Wall-clock reads, environment lookups,
// CPU-count probes and unseeded global randomness are ambient inputs that
// would make two runs of the same request produce different bytes, which
// breaks content-addressed caching (§10) and golden-doc testing.
//
// The analyzer forbids a fixed call list in result-computing packages.
// Seeded randomness is the sanctioned pattern and passes untouched:
// rand.New(rand.NewSource(seed)) constructs a source, and every draw is a
// method on the resulting *rand.Rand, not a package-level call. The two
// legitimate ambient reads in the tree — store recency mtimes and the
// worker-count default — carry ndetect:allow(detrand) markers with their
// reasons.

// detrandPackages is the scope: every package that computes, encodes or
// serves results. cmd/ (package main) is deliberately outside — CLI
// timing prints are presentation, not results.
var detrandPackages = map[string]bool{
	"report":    true,
	"encode":    true,
	"store":     true,
	"exp":       true,
	"service":   true,
	"fault":     true,
	"sim":       true,
	"ndetect":   true,
	"partition": true,
	"circuit":   true,
}

// detrandForbidden maps package path → forbidden function names. An empty
// set forbids the whole package except constructors (names starting with
// "New"), which is how unseeded math/rand draws are rejected while seeded
// sources pass.
var detrandForbidden = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true, "Getpid": true},
	"runtime":      {"GOMAXPROCS": true, "NumCPU": true},
	"math/rand":    nil, // nil set: everything except New* is forbidden
	"math/rand/v2": nil,
}

// DetRand is the detrand analyzer.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "wall-clock, environment and unseeded randomness must not influence results",
	Run:  runDetRand,
}

func runDetRand(p *Pass) error {
	if !detrandPackages[p.Pkg.Name()] {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := calleePkgFunc(p.Info, call)
			if !ok {
				return true
			}
			funcs, scoped := detrandForbidden[pkg]
			if !scoped {
				return true
			}
			forbidden := funcs == nil && !strings.HasPrefix(name, "New")
			if funcs != nil {
				forbidden = funcs[name]
			}
			if forbidden {
				p.Reportf(call.Pos(), "%s.%s is an ambient input; results must be pure in (circuit, options, seed) — thread it explicitly or mark ndetect:allow(detrand) with a reason (DESIGN.md §7)", lastPathElem(pkg), name)
			}
			return true
		})
	}
	return nil
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
