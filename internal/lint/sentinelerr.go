package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Sentinelerr forbids identity comparison (`==`/`!=`, or a `switch err`
// case) against the module's sentinel error values (bus.ErrFarmBusy,
// bus.ErrTimeout, bus.ErrNotBound, bin.ErrCorrupt, ...). A sentinel that
// crosses a recorded reply comes back as a *different* value wrapping the
// sentinel — the recorder stores errors as (class, message) and replay
// rebuilds them with errors.Is-compatible wrapping — so identity holds only
// on a live run and silently stops matching on a replayed trace.
// errors.Is is the only comparison that behaves identically live and in
// replay.
func Sentinelerr(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "sentinelerr",
		Doc: "forbid ==/!= (and switch-case) comparison against module sentinel errors; wire re-framing " +
			"rebuilds errors by wrapping, so only errors.Is classifies replies identically live and in replay",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					for _, side := range []ast.Expr{n.X, n.Y} {
						if name, ok := sentinelVar(pass, cfg, side); ok {
							pass.Reportf(n.Pos(),
								"%s compared with %s; the wire codec re-frames errors by wrapping the sentinel, "+
									"so identity fails on replayed replies — use errors.Is(err, %s)",
								name, n.Op, name)
							break
						}
					}
				case *ast.SwitchStmt:
					if n.Tag == nil {
						return true
					}
					for _, stmt := range n.Body.List {
						clause, ok := stmt.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, expr := range clause.List {
							if name, ok := sentinelVar(pass, cfg, expr); ok {
								pass.Reportf(expr.Pos(),
									"switch case compares against %s by identity; the wire codec re-frames errors "+
										"by wrapping the sentinel — use errors.Is(err, %s)",
									name, name)
							}
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// sentinelVar reports whether e is a use of a module-internal package-level
// `Err*` variable of error type — the sentinel convention this repository
// follows (bus.ErrTimeout, device.ErrFarmBusy, bin.ErrCorrupt). Stdlib
// sentinels stay out of scope: `err == io.EOF` is the blessed idiom of every
// decode loop here, and stdlib errors never cross the wire codec.
func sentinelVar(pass *Pass, cfg *Config, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return "", false
	}
	if !strings.HasPrefix(v.Pkg().Path()+"/", cfg.ModulePrefix) {
		return "", false
	}
	if v.Parent() != v.Pkg().Scope() {
		return "", false // a local variable that happens to be named ErrFoo
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !types.Implements(v.Type(), errType) && !types.Identical(v.Type(), errType) {
		return "", false
	}
	name := v.Name()
	if v.Pkg().Path() != pass.Pkg.Path() {
		name = v.Pkg().Name() + "." + name
	}
	return name, true
}
