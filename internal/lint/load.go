package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package loading for the standalone driver and the analysistest-style
// suites.
//
// Analyzers need full type information, which means resolving imports.
// Without golang.org/x/tools/go/packages the pragmatic stdlib route is the
// same one go vet itself uses: ask the go command to compile dependencies
// and hand back export data (`go list -json -export -deps`), then
// type-check the target package from source with go/importer's gc importer
// reading those export files. It works offline — the build cache is the
// only store touched — and it is exactly the shape unitchecker.go receives
// from go vet, so one typecheck helper serves both entry points.

// Target is one loaded, type-checked package ready for analysis.
type Target struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	ImportMap  map[string]string
}

// LoadPackages loads and type-checks the packages matched by patterns,
// resolved relative to dir, with dependencies imported from compiled
// export data.
func LoadPackages(dir string, patterns ...string) ([]*Target, error) {
	return loadPackages(dir, nil, patterns)
}

// loadPackages is LoadPackages with extra go list flags. Under -test each
// package's test variant, which holds its in-package test files, loads as
// a Target of its own whose package path is the plain import path; the
// generated test mains are skipped.
func loadPackages(dir string, flags, patterns []string) ([]*Target, error) {
	args := append([]string{"list", "-json", "-export", "-deps"}, flags...)
	args = append(append(args, "--"), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}

	var loaded []*Target
	for _, p := range targets {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		t, err := typecheck(path, files, p.ImportMap, func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, t)
	}
	return loaded, nil
}

// typecheck parses the given files and type-checks them as one package,
// importing dependencies through lookup (a reader of gc export data).
// importMap translates source-level import paths to canonical package
// paths (vendoring; identity entries may be omitted).
func typecheck(pkgPath string, filenames []string, importMap map[string]string, lookup func(string) (io.ReadCloser, error)) (*Target, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	mapped := func(path string) (io.ReadCloser, error) {
		if m, ok := importMap[path]; ok {
			path = m
		}
		return lookup(path)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", mapped),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", pkgPath, err)
	}
	return &Target{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Run loads the packages matched by patterns and runs the analyzers over
// each, returning all findings.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	targets, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, t := range targets {
		diags, err := RunAnalyzers(t, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
