package netcluster_test

// The reachability gate: every exported name in the root package and in
// internal/, and every top-level function of the root module, must be
// reached from code that runs — a main, an init, a package-level
// variable's initializer — through non-test code. A name only tests use
// is dead weight the next reader has to understand; it moves into the
// _test.go files that use it, or it goes. The few deliberate exceptions
// are listed, each with its reason, in testdata/orphans.txt, and that list
// must stay exact: an entry that gains a user or disappears fails the gate
// too, so it can only shrink.
//
// Everything here is the standard library: go/build selects each
// package's non-test files for the host, go/parser reads them, and
// go/types checks them in dependency order, one *types.Package per import
// path, so an object is the same object in every package that uses it.

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; skipped under -short")
	}
	tree, err := loadTree([]gateModule{
		{Dir: ".", Path: "github.com/netaware/netcluster", Funcs: true},
		{Dir: "benchmark", Path: "github.com/netaware/netcluster/benchmark"},
	})
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/orphans.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range tree.check(allow) {
		t.Error(msg)
	}
}

// TestReachabilityFixture proves the gate's rules on a small tree whose
// orphans are known: see testdata/reachfixture.
func TestReachabilityFixture(t *testing.T) {
	tree, err := loadTree([]gateModule{
		{Dir: "testdata/reachfixture", Path: "example.com/reachfixture", Funcs: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.orphans(nil)
	want := []string{
		"fixture.Orphan",             // nothing calls it
		"fixture.onlyOrphanUses",     // only Orphan calls it
		"fixture.Box.Unused",         // a generic method no instantiation calls
		"fixture.Sized.Size",         // no interface declares it
		"fixture.deadCycleA",         // a cycle nothing enters
		"fixture.deadCycleB",         //
		"fixture.OrphanVar",          // an initializer runs, but nothing reads it
		"fixture.OrphanType",         // only its own method mentions it
		"fixture.OrphanType.Method",  // its receiver is dead
		"fixture.orphanTypeInternal", // only OrphanType.Method calls it
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("orphans:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An allowlisted orphan keeps what it uses; an allowlisted live name
	// and an allowlisted name that does not exist both fail.
	msgs := tree.check(map[string]string{
		"fixture.Orphan":  "seam",
		"fixture.Counted": "stale: main uses it",
		"fixture.Gone":    "stale: no such name",
	})
	joined := strings.Join(msgs, "\n")
	for _, sub := range []string{
		"fixture.Counted: allowlisted but used",
		"fixture.Gone: allowlisted but not found",
		"fixture.Box.Unused: no non-test user",
	} {
		if !strings.Contains(joined, sub) {
			t.Errorf("check with a stale allowlist: missing %q in\n%s", sub, joined)
		}
	}
	if strings.Contains(joined, "onlyOrphanUses") {
		t.Errorf("an allowlisted orphan's callee was flagged:\n%s", joined)
	}
}

// gateModule is one module root the gate loads. Funcs extends the
// unexported-function rule to it; Dir is relative to the repository root.
type gateModule struct {
	Dir, Path string
	Funcs     bool
}

type gatePkg struct {
	mod   *gateModule
	rel   string // directory relative to the module root, "" for the root
	path  string
	files []*ast.File
	names []string // file names, relative to the module root
	types *types.Package
	info  *types.Info
}

// label is the package's name in gate messages and the allowlist: its
// directory under the module root, or the package name for the root.
func (p *gatePkg) label() string {
	if p.rel == "" {
		return p.types.Name()
	}
	return p.rel
}

type gateTree struct {
	fset *token.FileSet
	pkgs map[string]*gatePkg
	list []*gatePkg // in dependency order

	// uses[x] is the set of declarations whose bodies, signatures or
	// initializers mention x; roots are the declarations that run
	// unasked.
	uses  map[types.Object]map[types.Object]bool
	roots map[types.Object]bool
	// cands is what the gate reports, with its label; file is each
	// candidate's declaring file, for file-level allowlist entries.
	cands map[types.Object]string
	file  map[types.Object]string
	owner map[types.Object]*gatePkg
}

func loadTree(mods []gateModule) (*gateTree, error) {
	tr := &gateTree{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*gatePkg{},
		uses:  map[types.Object]map[types.Object]bool{},
		roots: map[types.Object]bool{},
		cands: map[types.Object]string{},
		file:  map[types.Object]string{},
		owner: map[types.Object]*gatePkg{},
	}
	for i := range mods {
		if err := tr.parseModule(&mods[i]); err != nil {
			return nil, err
		}
	}
	std := importer.ForCompiler(tr.fset, "source", nil).(types.ImporterFrom)
	state := map[string]int{} // 1 checking, 2 done
	var check func(p *gatePkg) error
	imp := importerFunc(func(path, dir string) (*types.Package, error) {
		if p, ok := tr.pkgs[path]; ok {
			if err := check(p); err != nil {
				return nil, err
			}
			return p.types, nil
		}
		return std.ImportFrom(path, dir, 0)
	})
	check = func(p *gatePkg) error {
		switch state[p.path] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p.path] = 1
		p.info = &types.Info{
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		var firstErr error
		conf := types.Config{Importer: imp, Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}}
		p.types, _ = conf.Check(p.path, tr.fset, p.files, p.info)
		if firstErr != nil {
			return fmt.Errorf("type-check %s: %w", p.path, firstErr)
		}
		state[p.path] = 2
		tr.list = append(tr.list, p)
		return nil
	}
	paths := make([]string, 0, len(tr.pkgs))
	for path := range tr.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := check(tr.pkgs[path]); err != nil {
			return nil, err
		}
	}
	for _, p := range tr.list {
		tr.index(p)
	}
	tr.linkInterfaces()
	return tr, nil
}

type importerFunc func(path, dir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}

// parseModule reads every package directory under m.Dir, skipping
// testdata, hidden directories and nested modules.
func (tr *gateTree) parseModule(m *gateModule) error {
	return filepath.WalkDir(m.Dir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != m.Dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(m.Dir, dir)
		rel = filepath.ToSlash(rel)
		p := &gatePkg{mod: m, path: m.Path}
		if rel != "." {
			p.rel = rel
			p.path += "/" + rel
		}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(tr.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
			p.names = append(p.names, pathJoin(p.rel, f))
		}
		tr.pkgs[p.path] = p
		return nil
	})
}

func pathJoin(dir, f string) string {
	if dir == "" {
		return f
	}
	return dir + "/" + f
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// index records p's declarations, their uses, the roots and the
// candidates.
func (tr *gateTree) index(p *gatePkg) {
	checkExported := p.mod.Funcs && (p.rel == "" || p.rel == "internal" || strings.HasPrefix(p.rel, "internal/"))
	for i, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := p.info.Defs[d.Name]
				if fn == nil {
					continue
				}
				tr.walk(p, d, fn)
				name := d.Name.Name
				switch {
				case d.Recv == nil && name == "init",
					d.Recv == nil && name == "main" && p.types.Name() == "main":
					tr.roots[fn] = true
				case d.Recv != nil:
					recv := recvName(d)
					if checkExported && d.Name.IsExported() {
						tr.candidate(p, fn, recv+"."+name, p.names[i])
					}
				case d.Name.IsExported() && checkExported, !d.Name.IsExported() && p.mod.Funcs && name != "_":
					tr.candidate(p, fn, name, p.names[i])
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := p.info.Defs[s.Name]
						tr.walk(p, s, obj)
						if checkExported && s.Name.IsExported() {
							tr.candidate(p, obj, s.Name.Name, p.names[i])
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							obj := p.info.Defs[id]
							if obj == nil { // the blank identifier
								continue
							}
							tr.walk(p, s, obj)
							if _, isVar := obj.(*types.Var); isVar {
								tr.roots[obj] = true
							}
							if checkExported && id.IsExported() {
								tr.candidate(p, obj, id.Name, p.names[i])
							}
						}
					}
				}
			}
		}
	}
}

func recvName(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch y := x.(type) {
	case *ast.IndexExpr:
		x = y.X
	case *ast.IndexListExpr:
		x = y.X
	}
	return x.(*ast.Ident).Name
}

func (tr *gateTree) candidate(p *gatePkg, obj types.Object, name, file string) {
	tr.cands[obj] = p.label() + "." + name
	tr.file[obj] = file
	tr.owner[obj] = p
}

// walk records every package-level object or method that n mentions as
// used by from.
func (tr *gateTree) walk(p *gatePkg, n ast.Node, from types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.info.Uses[id]
		if obj == nil || obj.Pkg() == nil || tr.pkgs[obj.Pkg().Path()] == nil {
			return true
		}
		obj = origin(obj)
		if obj == from {
			return true
		}
		fn, isFunc := obj.(*types.Func)
		if obj.Parent() != obj.Pkg().Scope() && !(isFunc && fn.Type().(*types.Signature).Recv() != nil) {
			return true
		}
		tr.use(from, obj)
		return true
	})
}

func (tr *gateTree) use(from, to types.Object) {
	if tr.uses[to] == nil {
		tr.uses[to] = map[types.Object]bool{}
	}
	tr.uses[to][from] = true
}

// linkInterfaces makes each named type a user of every method through
// which it satisfies an interface — one declared in the tree, or one in
// the standard-library packages the tree reaches — so a method that a
// caller reaches only by dynamic dispatch (String via fmt, ServeHTTP via
// net/http) is live exactly when its type is.
func (tr *gateTree) linkInterfaces() {
	byMethod := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		if it.NumMethods() > 0 {
			name := it.Method(0).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	// The universe's error, and the method sets errors.Is, errors.As and
	// errors.Unwrap look for through interface literals of their own.
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	errType := types.Universe.Lookup("error").Type()
	for _, m := range []struct {
		name    string
		params  []types.Type
		results []types.Type
	}{
		{"Unwrap", nil, []types.Type{errType}},
		{"Unwrap", nil, []types.Type{types.NewSlice(errType)}},
		{"Is", []types.Type{errType}, []types.Type{types.Typ[types.Bool]}},
		{"As", []types.Type{types.NewInterfaceType(nil, nil)}, []types.Type{types.Typ[types.Bool]}},
	} {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(m.params), tuple(m.results), false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil)
		addIface(it.Complete())
	}
	var named []*types.Named
	for _, p := range tr.list {
		visit(p.types)
		// Interfaces declared inside functions and interface literals.
		for _, obj := range p.info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		// Generic types are checked through their instantiations.
		for _, inst := range p.info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		from := n.Origin().Obj()
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj()
			for _, it := range byMethod[m.Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), it.Method(j).Name())
					if obj != nil && obj.Pkg() != nil && tr.pkgs[obj.Pkg().Path()] != nil {
						tr.use(from, origin(obj))
					}
				}
			}
		}
	}
}

// live is every declaration reachable from the roots, plus those in keep
// and what they reach.
func (tr *gateTree) live(keep map[types.Object]bool) map[types.Object]bool {
	users := map[types.Object][]types.Object{} // inverted: from → to
	for to, froms := range tr.uses {
		for from := range froms {
			users[from] = append(users[from], to)
		}
	}
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if !live[o] {
			live[o] = true
			work = append(work, o)
		}
	}
	for o := range tr.roots {
		mark(o)
	}
	for o := range keep {
		mark(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, to := range users[o] {
			mark(to)
		}
	}
	return live
}

// orphaned reports the candidates no live declaration other than their
// own uses. A package-level variable is live (its initializer runs) yet
// still an orphan when nothing reads it.
func (tr *gateTree) orphaned(live map[types.Object]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	for o := range tr.cands {
		used := false
		for from := range tr.uses[o] {
			if live[from] && from != o {
				used = true
				break
			}
		}
		if !used {
			out[o] = true
		}
	}
	return out
}

// orphans lists the labels of every orphan, with keep's entries treated
// as live.
func (tr *gateTree) orphans(keep map[types.Object]bool) []string {
	var out []string
	for o := range tr.orphaned(tr.live(keep)) {
		out = append(out, tr.cands[o])
	}
	sort.Strings(out)
	return out
}

// matches reports whether allowlist entry e covers candidate o: a name,
// a package directory, or a file.
func (tr *gateTree) matches(e string, o types.Object) bool {
	switch {
	case strings.HasSuffix(e, ".go"):
		return tr.file[o] == e
	case !strings.Contains(e[strings.LastIndex(e, "/")+1:], "."):
		return tr.owner[o].label() == e
	}
	return tr.cands[o] == e
}

// check returns one message per gate failure: an orphan no allowlist
// entry covers, an allowlisted name that has a user, or an entry that
// matches nothing.
func (tr *gateTree) check(allow map[string]string) []string {
	bare := tr.orphaned(tr.live(nil))
	keep := map[types.Object]bool{}
	var msgs []string
	for e := range allow {
		found, orphan := false, false
		for o := range tr.cands {
			if tr.matches(e, o) {
				found = true
				if bare[o] {
					orphan = true
					keep[o] = true
				}
			}
		}
		switch {
		case !found:
			msgs = append(msgs, e+": allowlisted but not found; drop the entry")
		case !orphan:
			msgs = append(msgs, e+": allowlisted but used by non-test code; drop the entry")
		}
	}
	for o := range tr.orphaned(tr.live(keep)) {
		if keep[o] {
			continue
		}
		covered := false
		for e := range allow {
			if tr.matches(e, o) {
				covered = true
			}
		}
		if !covered {
			msgs = append(msgs, fmt.Sprintf("%s: no non-test user (%s); delete it, move it into a _test.go file, or allowlist it with a reason",
				tr.cands[o], tr.fset.Position(o.Pos())))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// readAllowlist parses testdata/orphans.txt: one entry per line, the
// name then its reason; blank lines and #-comments are skipped.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		out[name] = strings.TrimSpace(reason)
	}
	return out, sc.Err()
}
