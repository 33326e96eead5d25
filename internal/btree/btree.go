// Package btree implements the 32-way B-tree the paper's TPC-A
// simulation uses for its index trees (§5.2: "The simulator implements
// each index tree as a B-Tree with 32 entries per node").
//
// The tree lives inside an eNVy device's linear address space and
// performs its accesses through the device, so every search and update
// generates the word-sized I/O stream the storage system actually
// sees: a node visit reads the header, binary-searches the keys (two
// word reads per probed key), and follows one child pointer.
//
// Keys and values are uint64 (values are typically record addresses).
// The tree supports bulk loading, insertion with node splits, point
// lookups, and in-order range scans. Deletion is not implemented: the
// TPC-A workload — like the paper's — never removes records.
package btree

import (
	"encoding/binary"
	"fmt"

	"envy/internal/sim"
)

// Fanout is the B-tree order: up to Fanout children per internal node
// and Fanout-1 keys per node.
const Fanout = 32

// NodeBytes is the on-device size of one node:
// 8 bytes header + 31 keys + 32 children/values, 8 bytes each.
const NodeBytes = 8 + (Fanout-1)*8 + Fanout*8

// headerBytes is the on-device tree header (magic, root, next, height).
const headerBytes = 32

const magic = 0x654e5679 // "eNVy"

// Memory is the storage a tree lives in — an eNVy device or anything
// with the same word-access semantics.
type Memory interface {
	Read(p []byte, addr uint64) sim.Duration
	Write(p []byte, addr uint64) sim.Duration
}

// Preloader is optionally implemented by memories that support untimed
// initial loading (core.Device does); bulk loads use it when present.
type Preloader interface {
	Preload(data []byte, addr uint64) error
}

// Tree is a B-tree rooted in a [base, limit) region of device memory.
type Tree struct {
	mem    Memory
	base   uint64 // header address; nodes are allocated after it
	limit  uint64
	root   uint64
	next   uint64 // bump allocator cursor
	height int    // 1 = root is a leaf

	// word is the tree-walk's read/write buffer. A local array would
	// escape through the Memory interface and cost one heap allocation
	// per probed key; the tree is single-threaded, like the device.
	word [8]byte
}

// KV is one key/value pair for bulk loading.
type KV struct {
	Key, Value uint64
}

// New creates an empty tree occupying [base, limit) of mem.
func New(mem Memory, base, limit uint64) (*Tree, error) {
	if limit < base+headerBytes+NodeBytes {
		return nil, fmt.Errorf("btree: region [%d,%d) too small for one node", base, limit)
	}
	t := &Tree{mem: mem, base: base, limit: limit, next: base + headerBytes, height: 1}
	var err error
	t.root, err = t.alloc()
	if err != nil {
		return nil, err
	}
	leaf := newNode(true)
	t.writeNode(t.root, leaf)
	t.writeHeader()
	return t, nil
}

// Open reattaches to a tree previously created in [base, limit) —
// after a power cycle, for example.
func Open(mem Memory, base, limit uint64) (*Tree, error) {
	var hdr [headerBytes]byte
	mem.Read(hdr[:], base)
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("btree: no tree header at %d", base)
	}
	t := &Tree{
		mem:    mem,
		base:   base,
		limit:  limit,
		root:   binary.LittleEndian.Uint64(hdr[8:]),
		next:   binary.LittleEndian.Uint64(hdr[16:]),
		height: int(binary.LittleEndian.Uint32(hdr[24:])),
	}
	return t, nil
}

// Height returns the number of levels (1 = just a leaf). The paper's
// database sizes give 2 levels for branches, 3 for tellers and 5 for
// accounts (Figure 12).
func (t *Tree) Height() int { return t.height }

// Bytes returns how much of the region the tree has allocated.
func (t *Tree) Bytes() uint64 { return t.next - t.base }

func (t *Tree) alloc() (uint64, error) {
	if t.next+NodeBytes > t.limit {
		return 0, fmt.Errorf("btree: region exhausted (%d of %d bytes used)", t.next-t.base, t.limit-t.base)
	}
	addr := t.next
	t.next += NodeBytes
	return addr, nil
}

func (t *Tree) writeHeader() {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], t.root)
	binary.LittleEndian.PutUint64(hdr[16:], t.next)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(t.height))
	t.mem.Write(hdr[:], t.base)
}

// node is the in-host working copy of one on-device node.
type node struct {
	leaf bool
	n    int
	keys [Fanout - 1]uint64
	ptrs [Fanout]uint64 // children (internal) or values (leaf)
}

func newNode(leaf bool) *node { return &node{leaf: leaf} }

const (
	offKeys = 8
	offPtrs = 8 + (Fanout-1)*8
)

func (nd *node) encode() []byte {
	buf := make([]byte, NodeBytes)
	if nd.leaf {
		buf[0] = 0
	} else {
		buf[0] = 1
	}
	buf[1] = byte(nd.n)
	for i := 0; i < nd.n; i++ {
		binary.LittleEndian.PutUint64(buf[offKeys+i*8:], nd.keys[i])
	}
	count := nd.n // values in a leaf
	if !nd.leaf {
		count = nd.n + 1 // children
	}
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(buf[offPtrs+i*8:], nd.ptrs[i])
	}
	return buf
}

func decodeNode(buf []byte) *node {
	nd := &node{leaf: buf[0] == 0, n: int(buf[1])}
	for i := 0; i < nd.n; i++ {
		nd.keys[i] = binary.LittleEndian.Uint64(buf[offKeys+i*8:])
	}
	count := nd.n
	if !nd.leaf {
		count = nd.n + 1
	}
	for i := 0; i < count; i++ {
		nd.ptrs[i] = binary.LittleEndian.Uint64(buf[offPtrs+i*8:])
	}
	return nd
}

// readNode fetches a whole node (used by mutating operations, which
// must rewrite it anyway).
func (t *Tree) readNode(addr uint64) *node {
	buf := make([]byte, NodeBytes)
	t.mem.Read(buf, addr)
	return decodeNode(buf)
}

func (t *Tree) writeNode(addr uint64, nd *node) {
	t.mem.Write(nd.encode(), addr)
}

// Search returns the value stored under key. Its device I/O mirrors a
// hardware tree walk: per level, a header read, ~log2(fanout) probed
// keys, and one child pointer.
func (t *Tree) Search(key uint64) (uint64, bool) {
	addr := t.root
	for level := 0; ; level++ {
		leaf, n := t.readNodeHeader(addr)
		idx, exact := t.probe(addr, n, key)
		if leaf {
			if exact {
				return t.readPtr(addr, idx), true
			}
			return 0, false
		}
		child := idx
		if exact {
			child = idx + 1
		}
		addr = t.readPtr(addr, child)
	}
}

// probe binary-searches the keys of the node at addr, reading each
// probed key from the device. It returns the index of the first key
// ≥ key, and whether it equals key.
func (t *Tree) probe(addr uint64, n int, key uint64) (int, bool) {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k := t.readKey(addr, mid)
		switch {
		case k == key:
			return mid, true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// readNodeHeader reads the two header bytes of the node at addr.
func (t *Tree) readNodeHeader(addr uint64) (leaf bool, n int) {
	t.mem.Read(t.word[:2], addr)
	return t.word[0] == 0, int(t.word[1])
}

func (t *Tree) readWord(addr uint64) uint64 {
	t.mem.Read(t.word[:], addr)
	return binary.LittleEndian.Uint64(t.word[:])
}

func (t *Tree) readKey(addr uint64, i int) uint64 { return t.readWord(addr + offKeys + uint64(i)*8) }

func (t *Tree) readPtr(addr uint64, i int) uint64 { return t.readWord(addr + offPtrs + uint64(i)*8) }

// Update overwrites the value stored under an existing key and reports
// whether the key was found.
func (t *Tree) Update(key, value uint64) bool {
	addr := t.root
	for {
		leaf, n := t.readNodeHeader(addr)
		idx, exact := t.probe(addr, n, key)
		if leaf {
			if !exact {
				return false
			}
			binary.LittleEndian.PutUint64(t.word[:], value)
			t.mem.Write(t.word[:], addr+offPtrs+uint64(idx)*8)
			return true
		}
		child := idx
		if exact {
			child = idx + 1
		}
		addr = t.readPtr(addr, child)
	}
}

// Insert adds key with value, or overwrites the value if the key
// already exists.
func (t *Tree) Insert(key, value uint64) error {
	promoted, right, err := t.insert(t.root, t.height, key, value)
	if err != nil {
		return err
	}
	if right != 0 {
		newRoot, err := t.alloc()
		if err != nil {
			return err
		}
		nd := newNode(false)
		nd.n = 1
		nd.keys[0] = promoted
		nd.ptrs[0] = t.root
		nd.ptrs[1] = right
		t.writeNode(newRoot, nd)
		t.root = newRoot
		t.height++
	}
	t.writeHeader()
	return nil
}

// insert descends to the leaf and splits on the way back up. It
// returns the promoted key and new right sibling if the child split.
func (t *Tree) insert(addr uint64, level int, key, value uint64) (uint64, uint64, error) {
	nd := t.readNode(addr)
	if nd.leaf {
		idx, exact := findIn(nd, key)
		if exact {
			nd.ptrs[idx] = value
			t.writeNode(addr, nd)
			return 0, 0, nil
		}
		insertAt(nd, idx, key, value)
		if nd.n < Fanout-1 {
			t.writeNode(addr, nd)
			return 0, 0, nil
		}
		return t.split(addr, nd)
	}
	idx, exact := findIn(nd, key)
	child := idx
	if exact {
		child = idx + 1
	}
	promoted, right, err := t.insert(nd.ptrs[child], level-1, key, value)
	if err != nil || right == 0 {
		return 0, 0, err
	}
	// The child split: insert the separator and the new sibling.
	copy(nd.keys[child+1:], nd.keys[child:nd.n])
	copy(nd.ptrs[child+2:], nd.ptrs[child+1:nd.n+1])
	nd.keys[child] = promoted
	nd.ptrs[child+1] = right
	nd.n++
	if nd.n < Fanout-1 {
		t.writeNode(addr, nd)
		return 0, 0, nil
	}
	return t.split(addr, nd)
}

// split divides a full node in two, writes both halves, and returns
// the separator key and the right node's address.
func (t *Tree) split(addr uint64, nd *node) (uint64, uint64, error) {
	rightAddr, err := t.alloc()
	if err != nil {
		return 0, 0, err
	}
	mid := nd.n / 2
	right := newNode(nd.leaf)
	var sep uint64
	if nd.leaf {
		sep = nd.keys[mid]
		right.n = nd.n - mid
		copy(right.keys[:], nd.keys[mid:nd.n])
		copy(right.ptrs[:], nd.ptrs[mid:nd.n])
		nd.n = mid
	} else {
		sep = nd.keys[mid]
		right.n = nd.n - mid - 1
		copy(right.keys[:], nd.keys[mid+1:nd.n])
		copy(right.ptrs[:], nd.ptrs[mid+1:nd.n+1])
		nd.n = mid
	}
	t.writeNode(addr, nd)
	t.writeNode(rightAddr, right)
	return sep, rightAddr, nil
}

// findIn locates key in the in-host copy of a node.
func findIn(nd *node, key uint64) (int, bool) {
	lo, hi := 0, nd.n
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nd.keys[mid] == key:
			return mid, true
		case nd.keys[mid] < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

func insertAt(nd *node, idx int, key, value uint64) {
	copy(nd.keys[idx+1:], nd.keys[idx:nd.n])
	copy(nd.ptrs[idx+1:], nd.ptrs[idx:nd.n])
	nd.keys[idx] = key
	nd.ptrs[idx] = value
	nd.n++
}

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false.
func (t *Tree) Range(lo, hi uint64, fn func(key, value uint64) bool) {
	t.rangeWalk(t.root, lo, hi, fn)
}

func (t *Tree) rangeWalk(addr uint64, lo, hi uint64, fn func(uint64, uint64) bool) bool {
	nd := t.readNode(addr)
	if nd.leaf {
		for i := 0; i < nd.n; i++ {
			if nd.keys[i] < lo {
				continue
			}
			if nd.keys[i] > hi {
				return false
			}
			if !fn(nd.keys[i], nd.ptrs[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i <= nd.n; i++ {
		if i < nd.n && nd.keys[i] < lo {
			continue
		}
		if !t.rangeWalk(nd.ptrs[i], lo, hi, fn) {
			return false
		}
		if i < nd.n && nd.keys[i] > hi {
			return false
		}
	}
	return true
}

// Load bulk-builds a tree bottom-up from pairs, which must be sorted
// by ascending key with no duplicates. Nodes are filled to Fanout-2
// entries so later insertions have slack before their first split.
// When mem implements Preloader (an eNVy device does), nodes are
// installed without simulated I/O, modelling an initial database load.
func Load(mem Memory, base, limit uint64, pairs []KV) (*Tree, error) {
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			return nil, fmt.Errorf("btree: Load keys not strictly ascending at %d", i)
		}
	}
	t := &Tree{mem: mem, base: base, limit: limit, next: base + headerBytes, height: 1}
	pre, _ := mem.(Preloader)
	install := func(addr uint64, nd *node) error {
		if pre != nil {
			return pre.Preload(nd.encode(), addr)
		}
		t.mem.Write(nd.encode(), addr)
		return nil
	}

	const fill = Fanout - 2
	type built struct {
		addr     uint64
		firstKey uint64
	}

	// Build the leaf level.
	var level []built
	if len(pairs) == 0 {
		addr, err := t.alloc()
		if err != nil {
			return nil, err
		}
		if err := install(addr, newNode(true)); err != nil {
			return nil, err
		}
		level = []built{{addr, 0}}
	}
	for i := 0; i < len(pairs); i += fill {
		end := i + fill
		if end > len(pairs) {
			end = len(pairs)
		}
		nd := newNode(true)
		for j := i; j < end; j++ {
			nd.keys[nd.n] = pairs[j].Key
			nd.ptrs[nd.n] = pairs[j].Value
			nd.n++
		}
		addr, err := t.alloc()
		if err != nil {
			return nil, err
		}
		if err := install(addr, nd); err != nil {
			return nil, err
		}
		level = append(level, built{addr, pairs[i].Key})
	}

	// Build internal levels until one root remains.
	for len(level) > 1 {
		var parents []built
		for i := 0; i < len(level); i += fill + 1 {
			end := i + fill + 1
			if end > len(level) {
				end = len(level)
			}
			nd := newNode(false)
			nd.ptrs[0] = level[i].addr
			for j := i + 1; j < end; j++ {
				nd.keys[nd.n] = level[j].firstKey
				nd.ptrs[nd.n+1] = level[j].addr
				nd.n++
			}
			addr, err := t.alloc()
			if err != nil {
				return nil, err
			}
			if err := install(addr, nd); err != nil {
				return nil, err
			}
			parents = append(parents, built{addr, level[i].firstKey})
		}
		level = parents
		t.height++
	}
	t.root = level[0].addr
	if pre != nil {
		var hdr [headerBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:], magic)
		binary.LittleEndian.PutUint64(hdr[8:], t.root)
		binary.LittleEndian.PutUint64(hdr[16:], t.next)
		binary.LittleEndian.PutUint32(hdr[24:], uint32(t.height))
		if err := pre.Preload(hdr[:], t.base); err != nil {
			return nil, err
		}
	} else {
		t.writeHeader()
	}
	return t, nil
}
