package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPath is the static complement of the 0 allocs/op bench-smoke CI
// steps: where the benchmarks prove the annotated paths do not allocate
// today, this analyzer names the construct that would make them
// allocate tomorrow, at the line that introduces it.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: `forbid allocating constructs in //hmcsim:hotpath functions

A function whose doc comment carries //hmcsim:hotpath declares itself
part of an allocation-free steady-state path (event fire, ring and
queue operations, tracer hooks). Inside such functions this analyzer
flags: closure literals that capture variables
(a heap allocation per call — bind the callback once, as sim.Timer
does), calls into package fmt, string concatenation, and implicit
boxing of concrete values into interface types (call arguments,
assignments, returns). panic(...) arguments are exempt: panics are cold
by definition, and hoisting their formatting into a separate unannotated
function is the idiomatic fix for everything else they pull in.`,
	Run: runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathDirective(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	// Calls whose arguments should not also be reported for boxing:
	// panic (cold path) and fmt calls (already flagged wholesale).
	skipArgs := make(map[*ast.CallExpr]bool)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCapture(pass, fn, n)
		case *ast.CallExpr:
			checkHotCall(pass, n, skipArgs)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass, n) {
				pass.Reportf(n.OpPos, "hotpath: string concatenation allocates; "+
					"hot paths must not build strings")
			}
		case *ast.AssignStmt:
			checkAssignBoxing(pass, n)
		case *ast.ValueSpec:
			checkValueSpecBoxing(pass, n)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, fn, n)
		}
		return true
	})
}

// checkCapture flags closure literals that capture variables declared
// in the enclosing function (receiver, parameters or locals): each such
// literal is a fresh heap allocation every time the hot path reaches
// it. Literals that capture nothing compile to a static function value
// and are fine.
func checkCapture(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	captured := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// outside the literal itself.
		if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			captured[obj.Name()] = true
		}
		return true
	})
	if len(captured) == 0 {
		return
	}
	names := make([]string, 0, len(captured))
	for name := range captured {
		names = append(names, name)
	}
	sort.Strings(names)
	pass.Reportf(lit.Pos(), "hotpath: closure captures %s and allocates per call; "+
		"bind the callback once (sim.Timer, pre-bound stage functions) instead",
		strings.Join(names, ", "))
}

// checkHotCall flags fmt calls and interface-boxing arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, skipArgs map[*ast.CallExpr]bool) {
	// Builtins: panic's arguments are cold; the others (append, len,
	// copy, ...) never box.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			skipArgs[call] = true
			return
		}
	}
	// Conversions are not calls.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		skipArgs[call] = true
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
			obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			skipArgs[call] = true
			pass.Reportf(call.Pos(), "hotpath: fmt.%s allocates (formatting state and boxed arguments); "+
				"hot paths must not format", obj.Name())
			return
		}
	}
	if skipArgs[call] {
		return
	}
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // arg... passes the slice through, no boxing here
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			paramType = slice.Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, arg, paramType, "argument")
	}
}

// checkAssignBoxing flags `ifaceVar = concreteValue` assignments.
// Define (:=) never boxes: the variable takes the value's own type.
func checkAssignBoxing(pass *Pass, assign *ast.AssignStmt) {
	if assign.Tok != token.ASSIGN || len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		lhsType := pass.TypesInfo.TypeOf(lhs)
		if lhsType == nil {
			continue
		}
		reportBoxing(pass, assign.Rhs[i], lhsType, "assignment")
	}
}

// checkValueSpecBoxing flags `var x InterfaceType = concreteValue`.
func checkValueSpecBoxing(pass *Pass, spec *ast.ValueSpec) {
	if spec.Type == nil {
		return
	}
	declType := pass.TypesInfo.TypeOf(spec.Type)
	if declType == nil {
		return
	}
	for _, v := range spec.Values {
		reportBoxing(pass, v, declType, "declaration")
	}
}

// checkReturnBoxing flags returning a concrete value from a function
// whose result type is an interface.
func checkReturnBoxing(pass *Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fn.Type.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, field := range fn.Type.Results.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // bare return or single-call multi-value form
	}
	for i, r := range ret.Results {
		reportBoxing(pass, r, resultTypes[i], "return")
	}
}

// reportBoxing reports expr if converting it to target boxes a concrete
// value into an interface. nil literals and values already of interface
// type convert without allocating.
func reportBoxing(pass *Pass, expr ast.Expr, target types.Type, context string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if isUntypedNil(tv.Type) || types.IsInterface(tv.Type) {
		return
	}
	pass.Reportf(expr.Pos(), "hotpath: %s boxes %s into %s, which allocates; "+
		"keep hot-path data concretely typed", context, tv.Type.String(), target.String())
}

func isStringType(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Kind() == types.UntypedNil
}
