package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// declAllowlist names the declarations under internal/ that stay without a
// non-test caller, each with its reason. Keys are "pkg.Name" for top-level
// declarations and "pkg.Type.Method" for methods, pkg being the directory
// under internal/.
var declAllowlist = map[string]string{
	"benchutil.PruneSearch1NN":        "the §7.3 pruning procedure ablation_test.go's benchmarks drive",
	"burstdb.DB.Overlapping":          "the fig. 18 overlap query, the oracle of the burstdb, minisql and integration tests",
	"core.Engine.FailNextIndexInsert": "the fault hook the core tests use to drive Add's rollback",
	"israce.Enabled":                  "the allocation guards of six test packages skip themselves under -race",
	"leakcheck.Files":                 "the file-descriptor checks of the core, shard and s2 tests",
	"leakcheck.Main":                  "the goroutine-leak check of every package whose TestMain calls it",
	"obs.SlowLog.SetLogger":           "the obs, core and shard tests capture or silence slow-query logs through it",
	"sketch.ForEachKernel":            "runs the sketch and knn tests under every kernel the CPU offers",
	"sketch.Rows.CheckSums":           "the sketch and seqstore tests check every row's ΣX² against its codes",
	"spectral.Compressed.SafeBounds":  "the reference form of the sound bounds that SafeBoundsFast and the arena kernel are tested against",
}

// TestNoDeclarationWithoutACaller is api-check rule 8: every top-level
// func, type, var and const under internal/, exported or not, and every
// exported method there is referenced by non-test Go somewhere in the
// repository (cmd/, examples/, bench/ or another internal/ file), or it is
// on declAllowlist with its reason. A reference from inside the
// declaration's own body does not count; for a type, neither does one
// from its methods. Methods are matched by selector name alone, and an
// identifier by name within its package, so the check is a floor: a
// method counts as called when any selector shares its name. A method only
// the standard library calls (a String that only fmt reaches) needs an
// allowlist entry.
func TestNoDeclarationWithoutACaller(t *testing.T) {
	files := parseNonTestGo(t, ".")

	type decl struct {
		key, kind string // key: "internal/pkg.Name" or "internal/pkg.Type.Method"
		pos       token.Position
	}
	var decls []decl
	topLevel := map[string]map[string]bool{} // directory → top-level names
	for _, f := range files {
		if topLevel[f.dir] == nil {
			topLevel[f.dir] = map[string]bool{}
		}
		checked := strings.HasPrefix(f.dir, "internal/")
		for _, u := range units(f.ast) {
			if u.recv != "" {
				if name := u.names[0]; checked && name.IsExported() {
					decls = append(decls, decl{f.dir + "." + u.recv + "." + name.Name, "method", f.fset.Position(name.Pos())})
				}
				continue
			}
			for _, name := range u.names {
				topLevel[f.dir][name.Name] = true
				if checked && name.Name != "_" && name.Name != "init" {
					decls = append(decls, decl{f.dir + "." + name.Name, u.kind, f.fset.Position(name.Pos())})
				}
			}
		}
	}

	used := map[string]bool{}     // "dir.Name" of referenced top-level declarations
	selected := map[string]bool{} // selector names, outside the method of that name
	for _, f := range files {
		imports := map[string]string{} // local name → directory
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(path, "repro/") {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(path, "repro/")
		}
		top := map[any]bool{} // the file's top-level declaring nodes
		for _, u := range units(f.ast) {
			top[u.node] = true
		}
		for _, u := range units(f.ast) {
			own := map[string]bool{u.recv: true}
			method := ""
			if u.recv != "" {
				method = u.names[0].Name
			} else {
				for _, name := range u.names {
					own[name.Name] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if dir, ok := imports[x.Name]; ok {
							used[dir+"."+n.Sel.Name] = true
							return false
						}
					}
					if n.Sel.Name != method {
						selected[n.Sel.Name] = true
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n.Obj != nil && !top[n.Obj.Decl] {
						return true // a local, a parameter or a field
					}
					if topLevel[f.dir][n.Name] && !own[n.Name] {
						used[f.dir+"."+n.Name] = true
					}
				}
				return true
			}
			for _, body := range u.bodies {
				ast.Inspect(body, visit)
			}
		}
	}

	var missing []string
	declared := map[string]bool{}
	for _, d := range decls {
		ok := used[d.key]
		if d.kind == "method" {
			ok = selected[d.key[strings.LastIndex(d.key, ".")+1:]]
		}
		key := strings.TrimPrefix(d.key, "internal/")
		declared[key] = true
		if _, allowed := declAllowlist[key]; allowed {
			if ok {
				t.Errorf("%s is allowlisted but has a non-test caller; drop it from declAllowlist", key)
			}
			continue
		}
		if !ok {
			missing = append(missing, d.pos.String()+": "+d.kind+" "+key)
		}
	}
	for key := range declAllowlist {
		if !declared[key] {
			t.Errorf("declAllowlist names %s, which is not declared under internal/", key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("api-check rule 8: %d declarations have no non-test caller (delete them, move them into the tests that use them, or allowlist them with a reason):\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

// unit is one top-level declaration: a func or method, or one spec of a
// type, var or const group.
type unit struct {
	node   any          // the *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	kind   string       // func, type, var or const
	recv   string       // the receiver's type name, for a method
	names  []*ast.Ident // the declared names (a method's own name)
	bodies []ast.Node   // everything in the declaration but its names
}

func units(f *ast.File) []unit {
	var us []unit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			u := unit{node: d, kind: "func", names: []*ast.Ident{d.Name}, bodies: []ast.Node{d.Type}}
			if d.Body != nil {
				u.bodies = append(u.bodies, d.Body)
			}
			if d.Recv != nil {
				u.kind = "method"
				u.recv = recvName(d.Recv.List[0].Type)
				u.bodies = append(u.bodies, d.Recv)
			}
			us = append(us, u)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					u := unit{node: s, kind: "type", names: []*ast.Ident{s.Name}, bodies: []ast.Node{s.Type}}
					if s.TypeParams != nil {
						u.bodies = append(u.bodies, s.TypeParams)
					}
					us = append(us, u)
				case *ast.ValueSpec:
					u := unit{node: s, kind: strings.ToLower(d.Tok.String()), names: s.Names}
					if s.Type != nil {
						u.bodies = append(u.bodies, s.Type)
					}
					for _, v := range s.Values {
						u.bodies = append(u.bodies, v)
					}
					us = append(us, u)
				}
			}
		}
	}
	return us
}

// recvName is the type name in a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

type goFile struct {
	dir  string // slash-separated, relative to the repository root
	fset *token.FileSet
	ast  *ast.File
}

// parseNonTestGo parses every non-test .go file under root, whatever its
// build tags; testdata and hidden directories are skipped.
func parseNonTestGo(t *testing.T, root string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(path)), fset, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
