package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unused reports what only tests need: a function or method that no
// non-test code calls or takes as a value, and an exported field of a
// *Config/*Options struct that no non-test code sets. A reference counts
// only from code that is itself live — package-level initializers, main
// packages (cmd/, examples/, bench/), init and main, methods that satisfy
// an interface, and whatever those reach — so a helper that only a dead
// function calls is reported in the same run.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "functions, and exported Config/Options fields, must have a non-test user",
	Run: func(pass *Pass) {
		unused := pass.Graph.Unused()
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if name, dead := unused[pass.Info.Defs[id]]; dead {
						pass.Reportf(id.Pos(), "%s has no non-test user", name)
					}
				}
				return true
			})
		}
	},
}

// Unused computes (and caches) what the unused analyzer reports, by name:
// every function declared outside main packages, and every exported,
// non-embedded field of a struct named *Config or *Options, that no live
// code references (functions) or writes as a composite-literal key, an
// assignment target or an address operand (fields). Liveness is
// reachability from the roots named on the analyzer and from the bodies
// of functions kept on purpose, so references from dead bodies are
// discounted, cycles of dead functions included.
func (g *CallGraph) Unused() map[types.Object]string {
	if g.unused != nil {
		return g.unused
	}
	targets := map[types.Object]string{}
	refs := map[types.Object][]types.Object{} // enclosing func (nil: package level) -> referenced
	var roots, kept []types.Object
	var methods []*types.Func
	ifaces := map[string][]*types.Interface{} // method name -> interfaces declaring it
	addIface := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok {
			for i := range it.NumMethods() {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying())
	// Module interfaces are collected from source below; the exported ones
	// of every imported library package (fmt.Stringer, sort.Interface,
	// types.ImporterFrom, ...) are read from its scope here.
	inProgram := map[*types.Package]bool{}
	for _, pkg := range g.Pkgs {
		inProgram[pkg.Pkg] = true
	}
	var library func(p *types.Package)
	library = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if inProgram[imp] {
				continue
			}
			inProgram[imp] = true
			library(imp)
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type().Underlying())
				}
			}
		}
	}
	for _, pkg := range g.Pkgs {
		library(pkg.Pkg)
		isMain := pkg.Pkg.Name() == "main"
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var ctx types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					ctx = fn
					if keptOnPurpose(fd) {
						kept = append(kept, fn)
					}
					switch {
					case isMain || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main"):
						roots = append(roots, fn)
					case fd.Recv != nil:
						methods = append(methods, fn)
						targets[fn] = recvNamed(fn).Obj().Name() + "." + fn.Name()
					default:
						targets[fn] = fn.Name()
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
							refs[ctx] = append(refs[ctx], fn.Origin())
						}
					case *ast.KeyValueExpr:
						if key, ok := x.Key.(*ast.Ident); ok {
							refs[ctx] = append(refs[ctx], fieldOf(pkg.Info.Uses[key]))
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							refs[ctx] = append(refs[ctx], fieldWritten(pkg, lhs))
						}
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							refs[ctx] = append(refs[ctx], fieldWritten(pkg, x.X))
						}
					case *ast.InterfaceType:
						addIface(pkg.Info.TypeOf(x))
					case *ast.TypeSpec:
						st, ok := x.Type.(*ast.StructType)
						if !ok || isMain || !strings.HasSuffix(x.Name.Name, "Config") && !strings.HasSuffix(x.Name.Name, "Options") {
							break
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									targets[pkg.Info.Defs[name]] = x.Name.Name + "." + name.Name
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	for _, m := range methods {
		named := recvNamed(m)
		for _, it := range ifaces[m.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				roots = append(roots, m)
				break
			}
		}
	}
	work := append(roots, refs[nil]...)
	for _, k := range kept {
		work = append(work, refs[k]...)
	}
	live := map[types.Object]bool{}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if obj != nil && !live[obj] {
			live[obj] = true
			work = append(work, refs[obj]...)
		}
	}
	for obj := range live {
		delete(targets, obj)
	}
	g.unused = targets
	return targets
}

// keptOnPurpose reports whether fd's doc comment ends in a reasoned
// //lint:ignore naming unused: what the function references is then live,
// while its own finding is left for the directive to suppress (and the
// directive is reported once it suppresses nothing).
func keptOnPurpose(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	m := ignoreRe.FindStringSubmatch(fd.Doc.List[len(fd.Doc.List)-1].Text)
	return m != nil && m[2] != "" && slices.Contains(strings.Split(m[1], ","), "unused")
}

// recvNamed is the named type a method is declared on.
func recvNamed(m *types.Func) *types.Named {
	return namedOf(m.Type().(*types.Signature).Recv().Type())
}

// fieldOf returns obj's origin when it is a struct field, nil otherwise.
func fieldOf(obj types.Object) types.Object {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// fieldWritten returns the field an assignment target or address operand
// e names (nil when e is not a field selector).
func fieldWritten(pkg *Package, e ast.Expr) types.Object {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return fieldOf(pkg.Info.Uses[sel.Sel])
	}
	return nil
}
