// Buffer fixture: the SRAM write buffer and its flush-candidate index.
// Which frames are mid-flush decides what the controller may pick next,
// so the flush transitions are guarded state transitions (flashstate).
// Insert, Remove and the readers stay open to harnesses.
package sram

// Frame is one buffered page.
type Frame struct {
	flushing bool
}

// Flushing reads the frame's flush state.
func (f *Frame) Flushing() bool { return f.flushing }

// Buffer is the FIFO write buffer.
type Buffer struct {
	candidates int
}

// Insert buffers a page.
func (b *Buffer) Insert(logical uint32, home int, payload []byte) *Frame {
	b.candidates++
	return &Frame{}
}

// Remove frees a frame.
func (b *Buffer) Remove(f *Frame) { b.candidates-- }

// BeginFlush takes a frame out of the flush candidates.
func (b *Buffer) BeginFlush(f *Frame) {
	f.flushing = true
	b.candidates--
}

// AbortFlush puts a frame back among the flush candidates in place.
func (b *Buffer) AbortFlush(f *Frame) {
	f.flushing = false
	b.candidates++
}

// Oldest reads the oldest flush candidate.
func (b *Buffer) Oldest() *Frame { return nil }
