// Package rogue is an analyzer fixture that pokes at guarded state
// from outside the owning layers.
package rogue

import (
	"envy/internal/flash"
	"envy/internal/pagetable"
	"envy/internal/sram"
)

// Meddle mutates the flash array and page table directly.
func Meddle(a *flash.Array, t *pagetable.Table, m *pagetable.MMU) {
	a.Program(0, 0, nil) // want `flashstate: \(\*flash\.Array\)\.Program mutates guarded state`
	a.Invalidate(3)      // want `flashstate: \(\*flash\.Array\)\.Invalidate`
	a.Erase(1)           // want `flashstate: \(\*flash\.Array\)\.Erase`
	t.MapFlash(0, 9)     // want `flashstate: \(\*pagetable\.Table\)\.MapFlash`
	t.MapSRAM(0)         // want `flashstate: \(\*pagetable\.Table\)\.MapSRAM`
	t.Unmap(0)           // want `flashstate: \(\*pagetable\.Table\)\.Unmap`

	m.Invalidate(0) // the MMU is a cache, not guarded state
	_ = a.State(0)  // reads are unrestricted
	_, _ = t.Lookup(0)

	a.Erase(2) //envyvet:allow flashstate
}

// MeddleDiff rewrites diff chains from outside the owning layers.
func MeddleDiff(dd *pagetable.DiffDirectory) {
	dd.Keep(0, 9, false)              // want `flashstate: \(\*pagetable\.DiffDirectory\)\.Keep mutates guarded state`
	dd.SetKeptBase(0, true)           // want `flashstate: \(\*pagetable\.DiffDirectory\)\.SetKeptBase`
	dd.Append(0, pagetable.DiffLoc{}) // want `flashstate: \(\*pagetable\.DiffDirectory\)\.Append`
	dd.Rebase(0, 9, 11)               // want `flashstate: \(\*pagetable\.DiffDirectory\)\.Rebase`
	dd.RelocateUnit(7, 8)             // want `flashstate: \(\*pagetable\.DiffDirectory\)\.RelocateUnit`
	_ = dd.DropChain(0)               // want `flashstate: \(\*pagetable\.DiffDirectory\)\.DropChain`
	_, _, _ = dd.Drop(0)              // want `flashstate: \(\*pagetable\.DiffDirectory\)\.Drop`

	_ = dd.Entry(0) // reads are unrestricted
	_ = dd.UnitCount()

	dd.Rebase(0, 11, 9) //envyvet:allow flashstate
}

// MeddleBuffer moves frames in and out of the flush candidates from
// outside the owning layers.
func MeddleBuffer(b *sram.Buffer) {
	f := b.Insert(0, 0, nil) // harnesses may fill and empty a buffer
	b.BeginFlush(f)          // want `flashstate: \(\*sram\.Buffer\)\.BeginFlush mutates guarded state`
	b.AbortFlush(f)          // want `flashstate: \(\*sram\.Buffer\)\.AbortFlush`

	_ = f.Flushing() // reads are unrestricted
	_ = b.Oldest()
	b.Remove(f)

	b.BeginFlush(f) //envyvet:allow flashstate
}
