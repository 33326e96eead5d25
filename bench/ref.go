package main

// The reference kernel is the benchmark's unit of host cost. It is
// FROZEN: host_refs_per_op and every *_ref probe are wall time divided
// by the wall time of this code measured in the same milliseconds on
// the same core, so editing it re-baselines every host metric. A
// change that claims a gain may not touch this file.
//
// One reference iteration is two halves of about equal time:
//
//   - a step of a miniature log-structured page store — one 256-byte
//     page write with hot/cold locality into a 16 MiB arena through a
//     page table, greedy cleaning when free segments run out, and eight
//     word reads through the table — so that whatever slows table
//     walks, page copies and branchy bookkeeping on this machine slows
//     the reference too;
//   - 150 rounds of four independent xorshift chains updating a 32 KiB
//     table: wide, cache-resident integer work that loses issue slots
//     to a busy sibling hyperthread the way compiled code does.
//
// A serial xorshift chain alone (the first design) is latency-bound
// and hardly notices a busy sibling or a contended cache, so the
// workloads slowed by up to 50% relative to it from one minute to the
// next on the shared 2-vCPU box; against this mix the same runs agree
// to 5-9% (README, "Why the reference kernel looks like this").
//
// The kernel is integer-only, allocates nothing after construction,
// and its sequence of work depends on nothing but the iteration count.

const (
	refTableWords = 4096 // 32 KiB
	refWideRounds = 150

	ftlPageWords = 32 // 256-byte pages
	ftlSegPages  = 256
	ftlSegs      = 256 // 16 MiB arena
	ftlLogical   = ftlSegs * ftlSegPages * 3 / 4
	ftlMinFree   = 3
)

type refKernel struct {
	x   uint64
	sum uint64
	tab [refTableWords]uint64

	flash    []uint64 // the arena, ftlPageWords per physical page
	owner    []int32  // physical page → logical page, −1 when dead
	table    []int32  // logical page → physical page
	live     [ftlSegs]int32
	isFree   [ftlSegs]bool
	free     []int32
	frontier int32 // segment being filled
	next     int32 // next page of the frontier
	stage    [ftlPageWords]uint64
}

func newRefKernel() *refKernel {
	r := &refKernel{
		x:     0x9e3779b97f4a7c15,
		flash: make([]uint64, ftlSegs*ftlSegPages*ftlPageWords),
		owner: make([]int32, ftlSegs*ftlSegPages),
		table: make([]int32, ftlLogical),
		free:  make([]int32, 0, ftlSegs),
	}
	for i := range r.tab {
		r.tab[i] = uint64(i) * 0xbf58476d1ce4e5b9
	}
	for i := range r.owner {
		r.owner[i] = -1
	}
	for i := range r.table {
		r.table[i] = -1
	}
	for s := int32(ftlSegs - 1); s >= 1; s-- {
		r.free = append(r.free, s)
		r.isFree[s] = true
	}
	for lp := int32(0); lp < ftlLogical; lp++ {
		r.write(lp)
	}
	return r
}

// place appends the staged page to the frontier as logical page lp.
func (r *refKernel) place(lp int32) {
	if r.next == ftlSegPages {
		r.frontier = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		r.isFree[r.frontier] = false
		r.next = 0
	}
	p := r.frontier*ftlSegPages + r.next
	r.next++
	copy(r.flash[int(p)*ftlPageWords:int(p+1)*ftlPageWords], r.stage[:])
	r.owner[p] = lp
	r.table[lp] = p
	r.live[r.frontier]++
}

func (r *refKernel) write(lp int32) {
	if old := r.table[lp]; old >= 0 {
		r.owner[old] = -1
		r.live[old/ftlSegPages]--
	}
	r.stage[lp&(ftlPageWords-1)] += uint64(lp)
	r.place(lp)
	for r.next == ftlSegPages && len(r.free) < ftlMinFree {
		r.clean()
	}
}

// clean relocates the live pages of the emptiest segment and frees it.
func (r *refKernel) clean() {
	victim, best := int32(-1), int32(ftlSegPages+1)
	for s := int32(0); s < ftlSegs; s++ {
		if s != r.frontier && !r.isFree[s] && r.live[s] < best {
			victim, best = s, r.live[s]
		}
	}
	base := victim * ftlSegPages
	for i := int32(0); i < ftlSegPages; i++ {
		if lp := r.owner[base+i]; lp >= 0 {
			copy(r.stage[:], r.flash[int(base+i)*ftlPageWords:int(base+i+1)*ftlPageWords])
			r.owner[base+i] = -1
			r.live[victim]--
			r.place(lp)
		}
	}
	r.free = append(r.free, victim)
	r.isFree[victim] = true
}

// run executes n reference iterations and returns a checksum the
// caller keeps alive so the work cannot be elided.
func (r *refKernel) run(n int) uint64 {
	const m = refTableWords - 1
	x := r.x
	a, b, c, d := x|1, x^0x1234567, x^0x89abcdef, x^0xfedcba987
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var lp int32
		if x&7 != 0 { // 7/8 of the writes go to the first eighth of the space
			lp = int32((x >> 8) % (ftlLogical / 8))
		} else {
			lp = int32((x >> 8) % ftlLogical)
		}
		r.write(lp)
		y := x
		for k := 0; k < 8; k++ {
			y = y*6364136223846793005 + 1442695040888963407
			p := r.table[int32((y>>20)%ftlLogical)]
			r.sum += r.flash[int(p)*ftlPageWords+int(y>>59)]
		}

		for k := 0; k < refWideRounds; k++ {
			a ^= a << 13
			a ^= a >> 7
			a ^= a << 17
			b ^= b << 13
			b ^= b >> 7
			b ^= b << 17
			c ^= c << 13
			c ^= c >> 7
			c ^= c << 17
			d ^= d << 13
			d ^= d >> 7
			d ^= d << 17
			r.tab[a&m] += b
			r.tab[c&m] += d
		}
	}
	r.x = x
	return x ^ r.sum ^ a ^ b ^ c ^ d
}
