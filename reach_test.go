//go:build !race

package vroom_test

// The reachability and knob audit. It type-checks every package of a module
// from source (go/parser, go/types; the standard library through the gc
// importer over `go list -export` data) and builds a reference graph over
// the declarations in non-test files. Roots are every main under cmd/,
// examples/ and benchmark/, every init, package-level variable
// initializers, every declaration under benchmark/, and the exported
// declarations of the module's root package. A method of a reachable type is
// reachable when reachable code names it, or when the type implements an
// interface the module mentions (or one the standard library asserts
// dynamically: error, Stringer, Unwrap, Timeout, the marshalers) that has
// the method. Two lists come out:
//
//   - unreachable: declarations, methods and struct fields nothing reachable
//     refers to (members of an unreachable type are folded into the type);
//   - knob: exported fields of exported structs that reachable code reads
//     but no non-test code writes, so each has exactly one value.
//
// TestReachability compares both lists with testdata/unreachable.txt. The
// file builds without -race: the audit is single-threaded and deterministic,
// so the detector would only slow the type checker down.

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
	"reflect"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` output the audit reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// auditPackage is one type-checked module package.
type auditPackage struct {
	rel   string // import path relative to the module; "" for the root
	name  string
	files []*ast.File
	info  *types.Info
}

// auditNode is one declaration the audit can report.
type auditNode struct {
	name   string       // report name, e.g. "internal/h2.Framer.ReadFrame"
	owner  types.Object // enclosing type for methods and fields, else nil
	refs   []types.Object
	report bool // false under benchmark/, for blanks, init and main
	knob   bool // an exported field of an exported struct
	exempt bool // a field read by reflection or contributing methods
}

type auditor struct {
	mod     string
	pkgs    []*auditPackage
	nodes   map[types.Object]*auditNode
	roots   []types.Object
	ifaces  []*types.Interface
	written map[types.Object]bool
}

// auditModule runs the audit over the module in dir and returns its report,
// one "unreachable <name>" or "knob <name>" line per finding, sorted.
func auditModule(t *testing.T, dir string) []string {
	t.Helper()
	a := &auditor{
		nodes:   map[types.Object]*auditNode{},
		written: map[types.Object]bool{},
	}
	if err := a.load(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range a.pkgs {
		a.declare(p)
	}
	for _, p := range a.pkgs {
		a.collectInterfaces(p)
		a.collectWrites(p)
	}
	return a.report(a.reach())
}

// load lists the module with its dependencies and type-checks every module
// package in dependency order.
func (a *auditor) load(dir string) error {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v", dir, err)
	}
	var listed []*listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if lp.Module != nil && a.mod == "" {
			a.mod = lp.Module.Path
		}
		listed = append(listed, &lp)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	for _, lp := range listed {
		p := &auditPackage{
			rel:  strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, a.mod), "/"),
			name: lp.Name,
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		for _, f := range lp.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, file)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(lp.ImportPath, fset, p.files, p.info)
		if err != nil {
			return fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tp
		a.pkgs = append(a.pkgs, p)
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare registers every package-level declaration, method and struct
// field of p as a node, and records the roots p contributes.
func (a *auditor) declare(p *auditPackage) {
	prefix := p.rel
	if prefix == "" {
		prefix = a.mod
	}
	bench := p.rel == "benchmark" || strings.HasPrefix(p.rel, "benchmark/")
	isRoot := func(name string) bool { return bench || (p.rel == "" && ast.IsExported(name)) }
	add := func(obj types.Object, name string, owner types.Object, refs []types.Object) *auditNode {
		n := &auditNode{name: name, owner: owner, refs: refs, report: !bench && obj.Name() != "_"}
		a.nodes[obj] = n
		return n
	}
	for _, file := range p.files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := p.info.Defs[d.Name].(*types.Func)
				refs := a.refs(p, d)
				if d.Recv == nil {
					n := add(fn, prefix+"."+fn.Name(), nil, refs)
					isMain := p.name == "main" && fn.Name() == "main" &&
						(hasDirPrefix(p.rel, "cmd") || hasDirPrefix(p.rel, "examples") || bench)
					if fn.Name() == "init" || isMain {
						n.report = false
						a.roots = append(a.roots, fn)
					} else if isRoot(fn.Name()) {
						a.roots = append(a.roots, fn)
					}
					continue
				}
				recv := baseTypeName(fn.Type().(*types.Signature).Recv().Type())
				add(fn, prefix+"."+recv.Name()+"."+fn.Name(), recv, refs)
				if isRoot(recv.Name()) && ast.IsExported(fn.Name()) {
					a.roots = append(a.roots, fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						refs := a.refs(p, s)
						for _, id := range s.Names {
							obj := p.info.Defs[id]
							if obj == nil {
								continue
							}
							// An iota constant that repeats the previous
							// spec's expression names its type nowhere.
							add(obj, prefix+"."+id.Name, nil, append(refs[:len(refs):len(refs)], namedObj(obj.Type())...))
							if isRoot(id.Name) {
								a.roots = append(a.roots, obj)
							}
						}
						if len(s.Values) > 0 {
							a.roots = append(a.roots, refs...)
						}
					case *ast.TypeSpec:
						obj := p.info.Defs[s.Name]
						add(obj, prefix+"."+s.Name.Name, nil, a.refs(p, s))
						if isRoot(s.Name.Name) {
							a.roots = append(a.roots, obj)
						}
						a.declareFields(p, s.Type, prefix+"."+s.Name.Name, obj, bench, ast.IsExported(s.Name.Name))
					}
				}
			}
		}
	}
}

// declareFields registers the fields of every struct type literal in expr,
// nested anonymous structs included, as nodes owned by the type owner.
func (a *auditor) declareFields(p *auditPackage, expr ast.Expr, prefix string, owner types.Object, bench, knobs bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		s := p.info.TypeOf(st).(*types.Struct)
		for i := 0; i < s.NumFields(); i++ {
			f := s.Field(i)
			a.nodes[f] = &auditNode{
				name:   prefix + "." + f.Name(),
				owner:  owner,
				report: !bench && f.Name() != "_",
				knob:   knobs && st == expr && f.Exported(),
				exempt: s.Tag(i) != "" || (f.Embedded() && hasMethods(f.Type())),
			}
		}
		for _, fld := range st.Fields.List {
			a.declareFields(p, fld.Type, prefix+"."+fieldName(fld), owner, bench, false)
		}
		return false
	})
}

// refs lists the module objects n refers to: identifiers, the embedded
// fields a selector walks through, and every field of a struct literal
// written positionally.
func (a *auditor) refs(p *auditPackage, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := p.info.Uses[x]; obj != nil {
				out = append(out, origin(obj))
			}
		case *ast.SelectorExpr:
			if sel := p.info.Selections[x]; sel != nil {
				out = append(out, embeddedPath(sel.Recv(), sel.Index())...)
			}
		case *ast.CompositeLit:
			if s := structOf(p.info.TypeOf(x)); s != nil && positional(x) {
				for i := 0; i < s.NumFields(); i++ {
					out = append(out, origin(s.Field(i)))
				}
			}
		}
		return true
	})
	return out
}

// collectInterfaces records every non-empty interface type that p's
// expressions and named objects mention, signatures included.
func (a *auditor) collectInterfaces(p *auditPackage) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				a.ifaces = append(a.ifaces, it)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				a.ifaces = append(a.ifaces, u)
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Chan:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		}
	}
	for _, tv := range p.info.Types {
		walk(tv.Type)
	}
	for _, obj := range p.info.Uses {
		walk(obj.Type())
	}
}

// collectWrites marks every struct field p's code assigns, increments,
// takes the address of (a pointer-receiver method call on it included), or
// sets in a composite literal.
func (a *auditor) collectWrites(p *auditPackage) {
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			write(x.X)
		case *ast.StarExpr:
			write(x.X)
		case *ast.IndexExpr:
			write(x.X)
		case *ast.SelectorExpr:
			if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				a.written[origin(sel.Obj())] = true
				write(x.X)
			}
		}
	}
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(x.X)
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					write(x.Key)
					write(x.Value)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					write(x.X)
				}
			case *ast.CallExpr:
				fun, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
				if sel := p.info.Selections[fun]; ok && sel != nil && sel.Kind() == types.MethodVal {
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrOperand := p.info.TypeOf(fun.X).Underlying().(*types.Pointer)
					if ptrRecv && !ptrOperand {
						write(fun.X)
					}
				}
			case *ast.CompositeLit:
				s := structOf(p.info.TypeOf(x))
				if s == nil {
					return true
				}
				if positional(x) {
					for i := 0; i < s.NumFields(); i++ {
						a.written[origin(s.Field(i))] = true
					}
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if obj := p.info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
							a.written[origin(obj)] = true
						}
					}
				}
			}
			return true
		})
	}
}

// dynamicInterfaces are the interfaces the standard library asserts on
// values it is handed (errors, fmt, encoding, net), which module code
// therefore satisfies without ever naming them.
const dynamicInterfaces = `package dynamic
type (
	errorer        interface{ Error() string }
	stringer       interface{ String() string }
	goStringer     interface{ GoString() string }
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
	timeouter      interface{ Timeout() bool }
	temporary      interface{ Temporary() bool }
	jsonMarshaler  interface{ MarshalJSON() ([]byte, error) }
	jsonUnmarshal  interface{ UnmarshalJSON([]byte) error }
	textMarshaler  interface{ MarshalText() ([]byte, error) }
	textUnmarshal  interface{ UnmarshalText([]byte) error }
)
`

// reach marks everything reachable from the roots.
func (a *auditor) reach() map[types.Object]bool {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dynamic.go", dynamicInterfaces, 0)
	if err != nil {
		panic(err)
	}
	dyn, err := new(types.Config).Check("dynamic", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	for _, name := range dyn.Scope().Names() {
		a.ifaces = append(a.ifaces, dyn.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}

	reached := map[types.Object]bool{}
	work := append([]types.Object(nil), a.roots...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		n := a.nodes[obj]
		if n == nil || reached[obj] {
			continue
		}
		reached[obj] = true
		work = append(work, n.refs...)
		if n.owner != nil {
			work = append(work, n.owner)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if s, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				if a.nodes[s.Field(i)].exempt {
					work = append(work, s.Field(i))
				}
			}
		}
		work = append(work, a.implemented(tn)...)
	}
	return reached
}

// implemented lists the methods of tn, and the embedded fields leading to
// promoted ones, that satisfy an interface tn or *tn implements.
func (a *auditor) implemented(tn *types.TypeName) []types.Object {
	ptr := types.NewPointer(tn.Type())
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return nil
	}
	var out []types.Object
	for _, it := range a.ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			sel := mset.Lookup(m.Pkg(), m.Name())
			if sel == nil {
				continue
			}
			out = append(out, origin(sel.Obj()))
			out = append(out, embeddedPath(ptr, sel.Index())...)
		}
	}
	return out
}

// report lists the unreachable nodes, folding members into an unreachable
// owner, and the knobs nothing writes.
func (a *auditor) report(reached map[types.Object]bool) []string {
	var out []string
	for obj, n := range a.nodes {
		if !n.report || (n.owner != nil && !reached[n.owner]) {
			continue
		}
		switch {
		case !reached[obj]:
			out = append(out, "unreachable "+n.name)
		case n.knob && !n.exempt && !a.written[obj]:
			out = append(out, "knob "+n.name)
		}
	}
	sort.Strings(out)
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// embeddedPath lists the embedded fields a selection with the given index
// path walks through on its way from recv to the selected member.
func embeddedPath(recv types.Type, index []int) []types.Object {
	var out []types.Object
	t := recv
	for _, i := range index[:len(index)-1] {
		s := structOf(t)
		if s == nil {
			break
		}
		f := s.Field(i)
		out = append(out, origin(f))
		t = f.Type()
	}
	return out
}

func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}

func positional(lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	_, keyed := lit.Elts[0].(*ast.KeyValueExpr)
	return !keyed
}

func baseTypeName(t types.Type) *types.TypeName {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named).Origin().Obj()
}

func namedObj(t types.Type) []types.Object {
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return []types.Object{n.Origin().Obj()}
	}
	return nil
}

func hasMethods(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	return types.NewMethodSet(t).Len() > 0
}

func hasDirPrefix(rel, dir string) bool {
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}

func fieldName(f *ast.Field) string {
	if len(f.Names) > 0 {
		return f.Names[0].Name
	}
	return types.ExprString(f.Type)
}

// The allowlist reasons. A line that keeps a finding names one of them and,
// after the colon, the test or users that justify it.
var allowReasons = []string{"reference", "test-hook", "test-helper"}

// readAllowlist parses testdata/unreachable.txt: "<kind> <name> <reason>:
// <who>" per line, '#' comments and blank lines ignored.
func readAllowlist(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || (f[0] != "unreachable" && f[0] != "knob") {
			t.Errorf("%s:%d: want \"<unreachable|knob> <name> <reason>: <who>\", got %q", path, i+1, line)
			continue
		}
		reason, who, _ := strings.Cut(strings.Join(f[2:], " "), ":")
		valid := false
		for _, r := range allowReasons {
			valid = valid || reason == r
		}
		if !valid || strings.TrimSpace(who) == "" {
			t.Errorf("%s:%d: reason must be one of %v followed by \": <test or users>\", got %q", path, i+1, allowReasons, strings.Join(f[2:], " "))
		}
		out = append(out, f[0]+" "+f[1])
	}
	return out
}

// TestReachability fails when the module gains a declaration nothing
// reachable uses or a config field nothing writes, and when an allowlisted
// entry gains a caller or a writer: the allowlist can only shrink.
func TestReachability(t *testing.T) {
	got := auditModule(t, ".")
	allowed := map[string]bool{}
	for _, e := range readAllowlist(t, "testdata/unreachable.txt") {
		allowed[e] = true
	}
	for _, e := range got {
		if !allowed[e] {
			kind, name, _ := strings.Cut(e, " ")
			if kind == "knob" {
				t.Errorf("%s is read but no non-test code writes it: make it a constant, or allowlist it in testdata/unreachable.txt with a reason", name)
			} else {
				t.Errorf("%s is not reachable from any main, init or package vroom export: delete it, or allowlist it in testdata/unreachable.txt with a reason", name)
			}
		}
		delete(allowed, e)
	}
	var stale []string
	for e := range allowed {
		stale = append(stale, e)
	}
	sort.Strings(stale)
	for _, e := range stale {
		t.Errorf("allowlisted %q is no longer reported (it gained a caller or writer, or is gone): remove its line from testdata/unreachable.txt", e)
	}
}

// TestReachabilityFixture runs the audit over a module that plants exactly
// five findings among the patterns it must exempt.
func TestReachabilityFixture(t *testing.T) {
	got := auditModule(t, filepath.Join("testdata", "reach"))
	want := []string{
		"knob lib.Config.Unset",
		"knob lib.Stats.Hits",
		"unreachable lib.dead",
		"unreachable lib.helperOfDead",
		"unreachable lib.testOnly",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture audit:\n got %q\nwant %q", got, want)
	}
}
