package lint

import (
	"go/ast"
	"go/types"

	"revelio/internal/lint/analysis"
)

// timeseamScope lists the seam-governed packages: everything the
// seeded chaos scheduler composes over. A naked wall-clock read or an
// unseeded rand in one of these silently decouples a replay from the
// original run — the schedule still prints byte-for-byte, but the
// execution it drives no longer matches.
var timeseamScope = map[string]bool{
	"revelio/internal/chaos":      true,
	"revelio/internal/resilience": true,
	"revelio/internal/gateway":    true,
	"revelio/internal/fleet":      true,
	"revelio/internal/load":       true,
}

// nakedTimeFuncs are the package-level time functions that read or
// schedule against the wall clock. time.Duration arithmetic and the
// time.Time type are fine; minting "now" is not.
var nakedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// Timeseam reports naked wall-clock and rand use in the seam-governed
// packages. The injected seams (Resilience.Now/Rand, the chaos runner's
// clock) are defined in exactly one place each and carry their own
// //revelio:allow timeseam directives.
var Timeseam = &analysis.Analyzer{
	Name: "timeseam",
	Doc: "naked time.Now/Sleep/After or math/rand in internal/{chaos,resilience,gateway,fleet,load}: " +
		"these packages must flow time and randomness through their injected seams " +
		"or seeded chaos schedules stop replaying deterministically",
	Run: runTimeseam,
}

func runTimeseam(pass *analysis.Pass) error {
	if !timeseamScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(),
					"math/rand imported in seam-governed package %s: randomness must come through an injected, seeded source",
					pass.Pkg.Path())
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // t.After(u) et al are pure Time arithmetic, not clock reads
			}
			if nakedTimeFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"naked time.%s in seam-governed package %s: route through the injected clock seam",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
