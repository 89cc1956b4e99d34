package rtf_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that no shipped file calls and that stay exported anyway,
// each with the reason.
var exportAllowlist = map[string]string{
	// Oracles that another package's tests compare against.
	"rtf/internal/bitvec.FromIndex":                 "core's tests build the paper's sign vectors with it",
	"rtf/internal/bitvec.FromSigns":                 "core's tests build the paper's sign vectors with it",
	"rtf/internal/bitvec.Uniform":                   "core's tests draw the sampler's input vectors with it",
	"rtf/internal/bitvec.Vec.Index":                 "core's tests map a sampled vector back to its index",
	"rtf/internal/dyadic.Tree.IntervalAt":           "protocol's tests walk the tree's intervals with it",
	"rtf/internal/probmath.Annulus.DistanceProb":    "core's tests check the sampler's distance law against it",
	"rtf/internal/probmath.Annulus.CGapLogSpace":    "root BenchmarkCGapLogSpace times it against CGap",
	"rtf/internal/sparse.SupportAtOrder":            "protocol's tests count the reports a user sends with it",
	"rtf/internal/protocol.Sharded.IngestSum":       "root BenchmarkAnswerSeriesCold fills a server with it",
	"rtf/internal/wire.Decoder.Next":                "transport's codec tests and fuzzers and root BenchmarkIngestSingleMessage decode with it",
	"rtf/internal/transport.ServerMetrics.Registry": "cluster's tests read a front's counters through it",
	"rtf/internal/transport.IngestServer.Store":     "cluster's tests reach a backend's store through it",
	"rtf/internal/transport.Server.Close":           "cluster's tests close gateways through the embedded Server",
	// Methods on types that ldp or rtf/workload alias: public API.
	"rtf/internal/hh.DomainWorkload.Validate":     "ldp.DomainWorkload aliases the type",
	"rtf/internal/hh.DomainStream.NumChanges":     "ldp.DomainStream aliases the type",
	"rtf/internal/workload.Workload.MaxChanges":   "rtf/workload.Workload aliases the type",
	"rtf/internal/workload.Workload.TotalChanges": "rtf/workload.Workload aliases the type",
}

// TestInternalExportsHaveShippedCallers fails on every exported function
// or method declared under internal/ that no shipped file references.
// Shipped means every non-test Go file of this module and of the bench
// module; a method by which a type implements an interface counts as
// called (see implementations). A name only tests use belongs in a
// _test.go file of its package; one that another package's tests use as
// an oracle stays, named in exportAllowlist, and so does a method that
// ldp or rtf/workload exposes through a type alias. An entry that no
// longer names an uncalled export fails too, so the list stays short.
func TestInternalExportsHaveShippedCallers(t *testing.T) {
	c := newModuleChecker(t)
	for _, dir := range c.packageDirs(t) {
		c.check(t, dir)
	}
	used := map[types.Object]bool{}
	for _, info := range c.infos {
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
	}
	for f := range c.implementations() {
		used[f] = true
	}
	var unused []string
	allowed := map[string]bool{}
	for path, info := range c.infos {
		if !strings.HasPrefix(path, "rtf/internal/") {
			continue
		}
		for _, obj := range info.Defs {
			f, ok := obj.(*types.Func)
			if !ok || !f.Exported() || used[f] {
				continue
			}
			name := path + "." + f.Name()
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				named, ok := types.Unalias(deref(recv.Type())).(*types.Named)
				if !ok || types.IsInterface(named) {
					continue // a method an interface declares
				}
				name = path + "." + named.Obj().Name() + "." + f.Name()
			}
			if _, ok := exportAllowlist[name]; ok {
				allowed[name] = true
			} else {
				unused = append(unused, name)
			}
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		t.Errorf("%s: exported under internal/ with no shipped caller; move it into a _test.go file, delete it, or allowlist it with a reason", name)
	}
	for name := range exportAllowlist {
		if !allowed[name] {
			t.Errorf("%s: allowlisted, but it has a shipped caller or no longer exists; drop the entry", name)
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// implementations returns every method, declared or promoted through
// embedding, by which a type of either module implements an interface:
// one declared in either module, written inline in a signature there,
// or from the standard library and named there (error among them). fmt
// and errors call String and Unwrap on any value, so those interfaces
// count too. Code reached through an interface is called whether or not
// shipped code names the method.
func (c *moduleChecker) implementations() map[types.Object]bool {
	unwrapper := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))}, nil)
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String])), false))}, nil)
	ifaces := []*types.Interface{unwrapper.Complete(), stringer.Complete()}
	var concrete []*types.Named
	for _, info := range c.infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range info.Uses {
			if tn, ok := obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					concrete = append(concrete, n)
				}
			}
		}
	}
	impl := map[types.Object]bool{}
	seen := map[*types.Interface]bool{}
	for _, it := range ifaces {
		if seen[it] {
			continue
		}
		seen[it] = true
		for _, n := range concrete {
			var t types.Type = n
			if !types.Implements(t, it) {
				if t = types.NewPointer(n); !types.Implements(t, it) {
					continue
				}
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
					impl[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}
	return impl
}

// moduleChecker type-checks this module's and the bench module's
// non-test files from source, keeping each package's types.Info, and
// the standard library through the source importer.
type moduleChecker struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	root  string
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func newModuleChecker(t *testing.T) *moduleChecker {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &moduleChecker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		root:  root,
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
}

// packageDirs lists every directory of either module that holds Go files.
func (c *moduleChecker) packageDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir(c.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && p != c.root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !slices.Contains(dirs, filepath.Dir(p)) {
			dirs = append(dirs, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// importPath maps a directory of either module to its import path.
func (c *moduleChecker) importPath(dir string) string {
	rel, _ := filepath.Rel(c.root, dir)
	if rel == "." {
		return "rtf"
	}
	return "rtf/" + filepath.ToSlash(rel)
}

// check type-checks the package in dir once, with its imports.
func (c *moduleChecker) check(t *testing.T, dir string) *types.Package {
	path := c.importPath(dir)
	if pkg, ok := c.pkgs[path]; ok {
		return pkg
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if p == "rtf" || strings.HasPrefix(p, "rtf/") {
			return c.check(t, filepath.Join(c.root, strings.TrimPrefix(strings.TrimPrefix(p, "rtf"), "/"))), nil
		}
		return c.std.ImportFrom(p, dir, 0)
	})}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	c.pkgs[path] = pkg
	c.infos[path] = info
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
