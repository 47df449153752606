package lint

// The unused-export guard: every exported identifier under internal/ must
// have a caller outside its own package's tests. It is a test rather than
// a sixth analyzer because an analyzer sees one package at a time, and
// this question needs every package that could depend on it.

import (
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls on our types: a method that helps a type satisfy
// one of them is referenced even when no source line calls it. Each maps
// method names to signatures in sigString's form.
var stdInterfaces = []map[string]string{
	{"String": "() (string)"}, // fmt.Stringer
	{"Error": "() (string)"},  // error
	{"ServeHTTP": "(net/http.ResponseWriter, *net/http.Request) ()"}, // http.Handler
	{ // http.ResponseWriter
		"Header":      "() (net/http.Header)",
		"Write":       "([]byte) (int, error)",
		"WriteHeader": "(int) ()",
	},
	{"Flush": "() ()"}, // http.Flusher
	{ // math/rand.Source, which rand.New wraps
		"Int63": "() (int64)",
		"Seed":  "(int64) ()",
	},
}

// TestNoUnusedExports type-checks the module and perfbench, test files
// included, and fails on any exported identifier under internal/ that
// nothing references or that only its own package's tests reference.
// A method also counts as referenced when its type implements an
// interface whose method of the same name is called somewhere, or one of
// stdInterfaces.
func TestNoUnusedExports(t *testing.T) {
	root := filepath.Join("..", "..")
	var targets []*Target
	for _, dir := range []string{root, filepath.Join(root, "perfbench")} {
		ts, err := loadPackages(dir, []string{"-test"}, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, ts...)
	}
	for _, u := range unusedExports(targets, "ndetect/internal/") {
		t.Errorf("%s: %s has no caller outside its own package's tests", u.pos, u.key)
	}
}

type unusedExport struct {
	key string
	pos token.Position
}

// unusedExports reports the exported identifiers declared in the non-test
// files of packages under prefix that no target references, other than
// from the declaring package's own test files. Objects are keyed by
// package path and name, because every target is type-checked on its own
// and shares no types.Object with the others.
func unusedExports(targets []*Target, prefix string) []unusedExport {
	declared := make(map[string]token.Position)
	methodSets := make(map[string]map[string]string) // type key → method → signature
	used := make(map[string]bool)
	type ifaceCall struct {
		it   *types.Interface
		name string
	}
	called := make(map[ifaceCall]bool)

	for _, tgt := range targets {
		isTest := func(pos token.Pos) bool {
			return strings.HasSuffix(tgt.Fset.Position(pos).Filename, "_test.go")
		}
		for id, obj := range tgt.Info.Defs {
			if obj == nil || isTest(id.Pos()) || !strings.HasPrefix(obj.Pkg().Path(), prefix) {
				continue
			}
			// Unexported types can carry exported methods too.
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && tn.Parent() == tn.Pkg().Scope() {
				methodSets[tn.Pkg().Path()+"."+tn.Name()] = methodSignatures(tn.Type())
			}
			if key, ok := objectKey(obj); ok && obj.Exported() {
				declared[key] = tgt.Fset.Position(id.Pos())
			}
		}

		base := strings.TrimSuffix(tgt.PkgPath, "_test")
		for id, obj := range tgt.Info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						called[ifaceCall{it, fn.Name()}] = true
					}
				}
			}
			if isTest(id.Pos()) && obj.Pkg().Path() == base {
				continue
			}
			if key, ok := objectKey(obj); ok {
				used[key] = true
			}
		}
	}

	// A called interface method references the same-named method of
	// every declared type that implements the whole interface.
	for c := range called {
		want := make(map[string]string, c.it.NumMethods())
		for i := 0; i < c.it.NumMethods(); i++ {
			m := c.it.Method(i)
			want[m.Name()] = sigString(m.Type().(*types.Signature))
		}
		for typ, ms := range methodSets {
			if implements(ms, want) {
				used[typ+"."+c.name] = true
			}
		}
	}
	for typ, ms := range methodSets {
		for _, want := range stdInterfaces {
			if implements(ms, want) {
				for name := range want {
					used[typ+"."+name] = true
				}
			}
		}
	}

	var out []unusedExport
	for key, pos := range declared {
		if !used[key] {
			out = append(out, unusedExport{key, pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// objectKey names a package-level object as path.Name and a method as
// path.Type.Method, the same in every target. Fields, locals and methods
// of unnamed types have no key.
func objectKey(obj types.Object) (string, bool) {
	switch obj := obj.(type) {
	case *types.Func:
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return obj.Pkg().Path() + "." + obj.Name(), obj.Parent() == obj.Pkg().Scope()
		}
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok {
			return "", false
		}
		tn := named.Origin().Obj()
		return tn.Pkg().Path() + "." + tn.Name() + "." + obj.Name(), true
	case *types.TypeName, *types.Var, *types.Const:
		return obj.Pkg().Path() + "." + obj.Name(), obj.Parent() == obj.Pkg().Scope()
	}
	return "", false
}

// methodSignatures is the method set of *T, by name and signature.
func methodSignatures(t types.Type) map[string]string {
	ms := types.NewMethodSet(types.NewPointer(t))
	out := make(map[string]string, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		out[fn.Name()] = sigString(fn.Type().(*types.Signature))
	}
	return out
}

func implements(have, want map[string]string) bool {
	for name, sig := range want {
		if have[name] != sig {
			return false
		}
	}
	return len(want) > 0
}

// sigString renders a signature's parameter and result types, without
// names or receiver, with types qualified by full package path, so that
// equal signatures from different type-checks render equal.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	list := func(tup *types.Tuple, variadic bool) string {
		parts := make([]string, tup.Len())
		for i := range parts {
			typ := tup.At(i).Type()
			if variadic && i == tup.Len()-1 {
				parts[i] = "..." + types.TypeString(typ.(*types.Slice).Elem(), qual)
				continue
			}
			parts[i] = types.TypeString(typ, qual)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return list(sig.Params(), sig.Variadic()) + " " + list(sig.Results(), false)
}
