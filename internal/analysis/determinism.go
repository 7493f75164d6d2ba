package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// kernelPackages names the simulation-kernel packages (by final import
// path element) whose results must be bit-identical across runs,
// machines and worker counts. Anything that perturbs event order or
// injects wall-clock state into these packages silently invalidates the
// A/B byte-identity guarantee the caches and golden tests rest on.
var kernelPackages = map[string]bool{
	"sim":     true,
	"noc":     true,
	"vault":   true,
	"link":    true,
	"host":    true,
	"hmc":     true,
	"traffic": true,
	"addr":    true,
	"packet":  true,
}

// wallClockFuncs are the package time functions that read or wait on
// the wall clock. Pure arithmetic on time.Duration values is fine; the
// kernel's simulated clock is integer picoseconds owned by the engine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// orderedSinkCalls are method/function names that feed an ordered
// schedule or stream: reaching one of these from inside a map-range
// body means random iteration order became event order.
var orderedSinkCalls = map[string]bool{
	"Schedule": true,
	"At":       true,
	"AtKey":    true,
	"After":    true,
	"Push":     true,
	"Send":     true,
	"Post":     true,
	"Enqueue":  true,
	"Fire":     true,
}

// Determinism enforces the kernel's bit-for-bit reproducibility
// contract statically.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: `forbid nondeterminism sources in simulation-kernel packages

In kernel packages (internal/sim, noc, vault, link, host, hmc, traffic,
addr, packet) this analyzer flags wall-clock reads (time.Now, time.Since
and friends), imports of math/rand (whose global generator is seeded per
process), go statements and select statements (every engine runs on one
goroutine, and concurrency inside a simulation breaks deterministic event
order), and ranging over a map where the body schedules events or appends
to ordered output. Suppress a finding with a trailing or preceding
//hmcsim:nondet-ok <reason> comment; the reason is mandatory.`,
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !pass.InKernelScope() || !kernelPackages[pass.Segment()] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				checkRandImport(pass, n)
			case *ast.SelectorExpr:
				checkWallClock(pass, n)
			case *ast.GoStmt:
				pass.suppress("nondet-ok", Diagnostic{
					Pos: n.Pos(),
					Message: "determinism: go statement in a kernel package; " +
						"concurrency inside a simulation breaks deterministic event order",
				})
			case *ast.SelectStmt:
				pass.suppress("nondet-ok", Diagnostic{
					Pos: n.Pos(),
					Message: "determinism: select statement in a kernel package; " +
						"case choice is runtime-random and breaks deterministic event order",
				})
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkRandImport flags math/rand imports. The kernel carries its own
// seeded, replayable generator (internal/sim/rand.go) precisely so that
// no component ever reaches for the process-global one.
func checkRandImport(pass *Pass, spec *ast.ImportSpec) {
	p, err := strconv.Unquote(spec.Path.Value)
	if err != nil {
		return
	}
	if p == "math/rand" || p == "math/rand/v2" {
		pass.suppress("nondet-ok", Diagnostic{
			Pos: spec.Pos(),
			Message: "determinism: kernel packages must not import " + p +
				"; use the engine's seeded RNG (internal/sim/rand.go) so runs replay bit-identically",
		})
	}
}

// checkWallClock flags selector uses resolving to wall-clock functions
// of package time. Checking the use (not just calls) also catches the
// method-value form `fn := time.Now`.
func checkWallClock(pass *Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	if !wallClockFuncs[obj.Name()] {
		return
	}
	pass.suppress("nondet-ok", Diagnostic{
		Pos: sel.Pos(),
		Message: "determinism: time." + obj.Name() + " reads the wall clock; " +
			"kernel code must take time from the engine's simulated clock",
	})
}

// checkMapRange flags map-range loops whose body schedules events or
// appends to ordered output: both turn Go's randomized iteration order
// into observable result order.
func checkMapRange(pass *Pass, loop *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[loop.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	sink := ""
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
					sink = "appends to ordered output"
				}
			} else if orderedSinkCalls[fun.Name] {
				sink = "calls " + fun.Name
			}
		case *ast.SelectorExpr:
			if orderedSinkCalls[fun.Sel.Name] {
				sink = "calls " + fun.Sel.Name
			}
		}
		return true
	})
	if sink == "" {
		return
	}
	pass.suppress("nondet-ok", Diagnostic{
		Pos: loop.Pos(),
		Message: "determinism: map iteration order is randomized and this loop body " + sink +
			"; iterate a sorted copy of the keys instead",
	})
}
