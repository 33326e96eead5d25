package analysis

import (
	"go/ast"
	"go/types"
)

// Flashstate confines mutation of the two authoritative state stores —
// the flash array's page lifecycle and the page table's mappings — to
// the layers that own them. Everyone else (commands, tests in other
// packages, benchmark harnesses) must go through the
// controller's API, or the invariants CheckDevice enforces stop
// meaning anything. Deliberate corruption in invariant tests is
// marked with //envyvet:allow flashstate.
var Flashstate = &Analyzer{
	Name: "flashstate",
	Doc: "confine flash-array and page-table mutation to the owning layers\n\n" +
		"Program/Invalidate/Erase on *flash.Array, MapFlash/MapSRAM/\n" +
		"Unmap on *pagetable.Table, the chain mutators on\n" +
		"*pagetable.DiffDirectory, and the flush transitions\n" +
		"(BeginFlush/AbortFlush) on *sram.Buffer change state that the\n" +
		"whole-device invariants are written against. Only internal/flash,\n" +
		"internal/pagetable, internal/sram, internal/core,\n" +
		"internal/cleaner, and internal/maptier (which owns a private\n" +
		"translation array) may call them; calls from any other package\n" +
		"are flagged. Reads (State, Owner, Lookup), filling and emptying a\n" +
		"buffer (Insert, Remove) and the MMU translation cache are\n" +
		"unrestricted.",
	Run: runFlashstate,
}

// stateOwners are the packages allowed to mutate guarded state: the
// two stores themselves plus the controller, the cleaner, and the
// mount-time recovery path, which together implement every legal
// transition (recovery's repairs are transitions too: discarding torn
// flush targets, sweeping orphans, finishing interrupted cleans).
var stateOwners = map[string]bool{
	"envy/internal/flash":     true,
	"envy/internal/pagetable": true,
	"envy/internal/sram":      true,
	"envy/internal/core":      true,
	"envy/internal/cleaner":   true,
	"envy/internal/maptier":   true,
	"envy/internal/recovery":  true,
}

// guardedMethods maps a receiver type (package path dot type name) to
// its mutating methods.
var guardedMethods = map[string]map[string]bool{
	"envy/internal/flash.Array": {
		"Program":    true,
		"Invalidate": true,
		"Erase":      true,
	},
	"envy/internal/pagetable.Table": {
		"MapFlash": true,
		"MapSRAM":  true,
		"Unmap":    true,
	},
	// The diff-chain directory (DESIGN.md §13): every mutator rewrites
	// which flash pages a logical page's contents live on, so the same
	// whole-device invariants guard it. Readers (Entry, UnitMembers,
	// Entries, Units, UnitCount, SRAMBytes, ...) are unrestricted.
	"envy/internal/pagetable.DiffDirectory": {
		"Keep":         true,
		"SetKeptBase":  true,
		"Append":       true,
		"DropChain":    true,
		"Drop":         true,
		"Rebase":       true,
		"RelocateUnit": true,
	},
	// The write buffer's flush transitions: which frames are mid-flush
	// decides membership in the flush-candidate index (DESIGN.md §15)
	// and must agree with the controller's flush reservations. Insert
	// and Remove stay open — layer probes fill and empty a bare buffer.
	"envy/internal/sram.Buffer": {
		"BeginFlush": true,
		"AbortFlush": true,
	},
}

func runFlashstate(pass *Pass) error {
	if stateOwners[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.TypesInfo.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			fn, ok := selection.Obj().(*types.Func)
			if !ok {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := types.Unalias(recv).(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if guardedMethods[key][fn.Name()] {
				pass.Reportf(call.Pos(), "flashstate: (*%s.%s).%s mutates guarded state from package %s; only the owning layers (flash, pagetable, sram, core, cleaner, maptier) may, everyone else goes through the device API",
					named.Obj().Pkg().Name(), named.Obj().Name(), fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
