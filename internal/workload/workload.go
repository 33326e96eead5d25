// Package workload generates the synthetic access streams used by the
// cleaning-policy studies (§4) and provides trace recording/replay for
// reproducible experiments.
//
// The paper's policy graphs are driven by page-update streams with a
// bimodal locality of reference ("10/90" means 90% of writes touch 10%
// of the pages); the full-system results use the TPC-A engine in
// internal/tpca instead.
package workload

import (
	"fmt"

	"envy/internal/sim"
)

// Generator produces a stream of logical page numbers to update.
type Generator interface {
	// Next returns the next page to write, in [0, Pages()).
	Next() uint32
	// Pages returns the size of the page space being written.
	Pages() int
	// String describes the workload for reports.
	String() string
}

// Bimodal draws pages from the paper's hot/cold distribution.
type Bimodal struct {
	dist  sim.Bimodal
	rng   *sim.RNG
	pages int
}

// NewBimodal returns a generator over pages pages where a hotAccess
// fraction of writes target the first hotData fraction of the space.
// The paper's "x/y" labels parse via sim.ParseLocality.
func NewBimodal(dist sim.Bimodal, pages int, seed uint64) *Bimodal {
	return &Bimodal{dist: dist, rng: sim.NewRNG(seed), pages: pages}
}

// NewUniform returns a generator with no locality (the 50/50 case).
func NewUniform(pages int, seed uint64) *Bimodal {
	return NewBimodal(sim.Uniform, pages, seed)
}

// Next returns the next page to write.
func (b *Bimodal) Next() uint32 { return uint32(b.dist.Draw(b.rng, b.pages)) }

// Pages returns the page-space size.
func (b *Bimodal) Pages() int { return b.pages }

func (b *Bimodal) String() string { return fmt.Sprintf("bimodal %v over %d pages", b.dist, b.pages) }

// Trace is a recorded page-write sequence that replays deterministically.
type Trace struct {
	pages  int
	writes []uint32
	pos    int
}

// Record captures n writes from g into a replayable trace.
func Record(g Generator, n int) *Trace {
	t := &Trace{pages: g.Pages(), writes: make([]uint32, n)}
	for i := range t.writes {
		t.writes[i] = g.Next()
	}
	return t
}

// Next returns the next traced write, cycling at the end.
func (t *Trace) Next() uint32 {
	if len(t.writes) == 0 {
		return 0
	}
	w := t.writes[t.pos]
	t.pos++
	if t.pos == len(t.writes) {
		t.pos = 0
	}
	return w
}

// Pages returns the page-space size.
func (t *Trace) Pages() int { return t.pages }

// Len returns the number of recorded writes.
func (t *Trace) Len() int { return len(t.writes) }

func (t *Trace) String() string {
	return fmt.Sprintf("trace of %d writes over %d pages", len(t.writes), t.pages)
}
