// Package spm implements the shared on-chip scratchpad (global buffer)
// manager of Flexer. Data tiles are assigned to variable-sized blocks,
// like a linear-scan register allocator with spilling: allocation first
// tries in-place replacement of an equally-sized dead block, then
// best-fit placement in free memory, and finally evicts a sequence of
// victim blocks chosen by the configured spill policy.
//
// The default policy is the paper's Algorithm 2: among all contiguous
// runs of evictable blocks large enough to hold the request, pick the
// one that minimizes (fragment size, sum of size x remaining-uses,
// number of blocks), in that order. The two baseline policies of
// Table 2 — first-fit spilling (MemPolicy1) and smallest-first spilling
// (MemPolicy2) — are provided for the Figure 12 ablation.
package spm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/flexer-sched/flexer/internal/tile"
)

// Policy selects the spill-victim strategy.
type Policy uint8

const (
	// PolicyFlexer is Algorithm 2: minimize fragmentation, then lost
	// reuse, then block count.
	PolicyFlexer Policy = iota
	// PolicyFirstFit spills the first single block large enough to hold
	// the request (MemPolicy1).
	PolicyFirstFit
	// PolicySmallestFirst repeatedly spills the smallest evictable
	// block until a sufficiently large free region exists (MemPolicy2).
	PolicySmallestFirst
)

// policyNames holds the name of every Policy, indexed by value.
var policyNames = [...]string{"flexer", "first-fit", "small-spill"}

// String names the policy as in the paper.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// PolicyNames lists the names ParsePolicy accepts, in value order.
func PolicyNames() []string { return slices.Clone(policyNames[:]) }

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(name string) (Policy, error) {
	if i := slices.Index(policyNames[:], name); i >= 0 {
		return Policy(i), nil
	}
	return 0, fmt.Errorf("unknown spill policy %q (want %s)", name, strings.Join(policyNames[:], ", "))
}

// region is one address range of the scratchpad: either an allocated
// tile block or free space. Regions tile the address space exactly.
type region struct {
	addr, size int64
	id         tile.ID
	num        int32 // id's tile number (see Numbering)
	alloc      bool
	dirty      bool
	pin        bool
}

// Numbering gives every tile a scratchpad will hold a dense number in
// [0, NumTiles()); a dfg.Graph numbers the tiles of its grids from
// their coordinates. The scratchpad's tile index is a slice by that
// number, so no lookup on the allocation path hashes a tile.ID.
type Numbering interface {
	NumTiles() int
	Num(tile.ID) int
}

// useCounts is where a resident block's remaining-use count comes from:
// the caller's function of the tile, or — on a bound scratchpad — the
// caller's table by tile number. The zero value answers 0.
type useCounts struct {
	fn  func(tile.ID) int
	tab []int32
}

func (u useCounts) of(r *region) int {
	if u.tab != nil {
		return int(u.tab[r.num])
	}
	if u.fn != nil {
		return u.fn(r.id)
	}
	return 0
}

// Eviction records one block removed from the scratchpad. Dirty
// evictions correspond to spill (write-back) memory operations; clean
// evictions drop read-only data that still resides off-chip and cost no
// traffic, only future reuse.
type Eviction struct {
	ID         tile.ID
	Size       int64
	Dirty      bool
	RemainUses int
}

// SPM manages one scratchpad. It is not safe for concurrent use.
type SPM struct {
	cap  int64
	regs []region
	// index[n] is 1 + the block address of the tile numbered n, 0 when
	// it is not resident: all zero whenever the scratchpad is empty. The
	// numbers are nums' when one is bound (Bind); otherwise tiles are
	// numbered as first allocated, in seen, len(index) being the next
	// number. A block carries its number: only num asks for the source.
	index   []int64
	nums    Numbering
	seen    map[tile.ID]int32
	used    int64
	policy  Policy
	inPlace bool
	// evScratch backs the eviction lists returned by Allocate, reused
	// across calls so the hot allocation path stays off the heap.
	evScratch []Eviction

	// Open checkpoints, innermost last: frames[:open]. The frames beyond
	// keep their region buffers for the next Checkpoint. journal holds
	// the index edits made under all of them, each frame owning the tail
	// from its mark.
	frames  []frame
	open    int
	journal []indexEdit

	weight []int64 // findAlg2Run scratch: per region, size x remaining uses
}

// indexEdit is one journalled change to the tile index: before the
// edit, index[num] was slot.
type indexEdit struct {
	num  int32
	slot int64
}

// frame is one open checkpoint: the regions and byte count it saved,
// and the length of the journal when it was taken.
type frame struct {
	regs    []region
	used    int64
	journal int
}

// New returns an empty scratchpad of the given capacity using the given
// spill policy. In-place replacement is enabled by default.
func New(capacity int64, policy Policy) *SPM {
	s := &SPM{}
	s.Reset(capacity, policy)
	return s
}

// Bind makes the empty scratchpad index its tiles by nums' numbers —
// every tile it is handed from now on must be one nums numbers —
// instead of numbering them as first seen. It lasts until Reset, and
// costs nothing per tile: the index is sized to nums once and reused.
func (s *SPM) Bind(nums Numbering) {
	if s.used != 0 {
		panic("spm: Bind on a scratchpad that holds blocks")
	}
	n := nums.NumTiles()
	s.nums, s.index = nums, slices.Grow(s.index[:0], n)[:n] // all zero, see the field
}

// num returns id's tile number, or -1 for a tile the first-seen
// numbering has not met (which therefore is not resident).
func (s *SPM) num(id tile.ID) int32 {
	if s.nums != nil {
		return int32(s.nums.Num(id))
	}
	if n, ok := s.seen[id]; ok {
		return n
	}
	return -1
}

// intern gives id, new to the first-seen numbering, the number n.
func (s *SPM) intern(id tile.ID, n int32) {
	if s.seen == nil {
		s.seen = make(map[tile.ID]int32)
	}
	s.seen[id] = n
}

// SetInPlace enables or disables the in-place replacement fast path
// (used by the ablation benchmarks).
func (s *SPM) SetInPlace(enabled bool) { s.inPlace = enabled }

// CloneInto overwrites dst with a deep copy of s, reusing dst's
// storage. dst must not be s. Returns dst. It copies the current state
// only — open checkpoints stay with s — and of a first-seen numbering
// only the resident tiles' numbers: any other tile is as good as new to
// the copy. The scheduler evaluates its sets in place between
// Checkpoint and Rollback; tests and the benchmark clone.
func (s *SPM) CloneInto(dst *SPM) *SPM {
	dst.Reset(s.cap, s.policy)
	dst.regs = append(dst.regs[:0], s.regs...)
	dst.used, dst.inPlace, dst.nums = s.used, s.inPlace, s.nums
	dst.index = slices.Grow(dst.index[:0], len(s.index))[:len(s.index)]
	for i := range s.regs {
		if r := &s.regs[i]; r.alloc {
			dst.index[r.num] = r.addr + 1
			if s.nums == nil {
				dst.intern(r.id, r.num)
			}
		}
	}
	return dst
}

// Reset returns s to an empty scratchpad of the given capacity and
// policy, reusing its storage, as after New: in-place replacement is
// re-enabled, a bound Numbering dropped. It un-sets the index entries
// of the resident blocks only: the cost is in what the scratchpad
// holds, not in the largest graph it has served.
func (s *SPM) Reset(capacity int64, policy Policy) {
	if capacity <= 0 {
		panic(fmt.Sprintf("spm: capacity must be positive, got %d", capacity))
	}
	for i := range s.regs {
		if r := &s.regs[i]; r.alloc {
			s.index[r.num] = 0
		}
	}
	s.index, s.nums = s.index[:0], nil
	clear(s.seen)
	s.cap = capacity
	// Room for a few regions from the start: a fresh scratchpad would
	// otherwise grow through 1, 2, 4 and 8 on its first allocations, and
	// every checkpoint frame after it.
	s.regs = append(slices.Grow(s.regs[:0], 16), region{addr: 0, size: capacity})
	s.used = 0
	s.policy = policy
	s.inPlace = true
	s.open, s.journal = 0, s.journal[:0]
}

// Checkpoint saves the scratchpad state so that the matching Rollback
// undoes every Allocate (its evictions included), Pin, Unpin and
// SetDirty made in between. It copies the region slice and journals
// index edits instead of copying the index, so a checkpoint/rollback
// pair costs one small memmove plus the edits actually made. Checkpoints nest: each opens a
// frame on a stack, and Rollback closes the innermost open one,
// returning to the state that frame saved — the scheduler walks its
// candidate sets this way on its one scratchpad, one frame per placed
// op, so a set that extends another places only the op it adds.
// Rollback panics when no frame is open; Reset discards every open one.
func (s *SPM) Checkpoint() {
	if s.open == len(s.frames) {
		s.frames = append(s.frames, frame{})
	}
	f := &s.frames[s.open]
	s.open++
	if cap(f.regs) < len(s.regs) {
		// Rollback swaps this buffer in as the region slice: give it the
		// room that one has, or the next split grows it all over again.
		f.regs = make([]region, 0, cap(s.regs))
	}
	f.regs = append(f.regs[:0], s.regs...)
	f.used, f.journal = s.used, len(s.journal)
}

// Rollback restores the state saved by the innermost open checkpoint,
// closing it.
func (s *SPM) Rollback() {
	if s.open == 0 {
		panic("spm: Rollback without an open checkpoint")
	}
	s.open--
	f := &s.frames[s.open]
	s.regs, f.regs = f.regs, s.regs
	s.used = f.used
	for i := len(s.journal) - 1; i >= f.journal; i-- {
		s.index[s.journal[i].num] = s.journal[i].slot
	}
	s.journal = s.journal[:f.journal]
}

// Capacity returns the scratchpad size in bytes.
func (s *SPM) Capacity() int64 { return s.cap }

// Utilization returns allocated/capacity in [0,1].
func (s *SPM) Utilization() float64 { return float64(s.used) / float64(s.cap) }

// Tile numbers. On a bound scratchpad (Bind) the caller usually holds a
// tile's number already: HasNum, PinNum, SetDirtyNum and AllocateBound
// take it. The tile.ID forms number the tile and call them; a negative
// number is a tile the scratchpad does not hold.

// Has reports whether tile id currently resides in the scratchpad.
func (s *SPM) Has(id tile.ID) bool { return s.HasNum(s.num(id)) }

// HasNum is Has for the tile numbered n.
func (s *SPM) HasNum(n int32) bool { return n >= 0 && s.index[n] != 0 }

// numBlocks returns the number of allocated blocks.
func (s *SPM) numBlocks() int {
	n := 0
	for i := range s.regs {
		if s.regs[i].alloc {
			n++
		}
	}
	return n
}

// regionAt returns the index of the region holding the tile numbered
// n, or -1 when it is not resident.
func (s *SPM) regionAt(n int32) int {
	if s.HasNum(n) {
		return s.find(s.index[n] - 1)
	}
	return -1
}

// find returns the index of the region starting at addr (which must
// exist).
func (s *SPM) find(addr int64) int {
	i := sort.Search(len(s.regs), func(i int) bool { return s.regs[i].addr >= addr })
	if i == len(s.regs) || s.regs[i].addr != addr {
		panic(fmt.Sprintf("spm: no region at address %#x", addr))
	}
	return i
}

// Pin marks tile id unevictable until Unpin. Pinning a tile not present
// is a no-op returning false.
func (s *SPM) Pin(id tile.ID) bool { return s.PinNum(s.num(id)) }

// PinNum is Pin for the tile numbered n.
func (s *SPM) PinNum(n int32) bool {
	if i := s.regionAt(n); i >= 0 {
		s.regs[i].pin = true
		return true
	}
	return false
}

// Pinned reports whether tile id is present and pinned. The fused
// scheduler uses it to tell its own gather-source pins apart from pins
// placed earlier in the same candidate set before rolling them back.
func (s *SPM) Pinned(id tile.ID) bool {
	i := s.regionAt(s.num(id))
	return i >= 0 && s.regs[i].pin
}

// Unpin clears the pin on tile id if present.
func (s *SPM) Unpin(id tile.ID) {
	if i := s.regionAt(s.num(id)); i >= 0 {
		s.regs[i].pin = false
	}
}

// UnpinAll clears every pin.
func (s *SPM) UnpinAll() {
	for i := range s.regs {
		s.regs[i].pin = false
	}
}

// SetDirty marks whether tile id holds state not yet written off-chip
// (partial sums and finished outputs). Dirty tiles cost a write-back
// when evicted.
func (s *SPM) SetDirty(id tile.ID, dirty bool) { s.SetDirtyNum(s.num(id), dirty) }

// SetDirtyNum is SetDirty for the tile numbered n.
func (s *SPM) SetDirtyNum(n int32, dirty bool) {
	if i := s.regionAt(n); i >= 0 {
		s.regs[i].dirty = dirty
	}
}

// BlockInfo describes one allocated block for inspection.
type BlockInfo struct {
	ID            tile.ID
	Addr, Size    int64
	Dirty, Pinned bool
}

// AppendBlocks appends the allocated blocks to dst in address order and
// returns it, letting a caller that walks them often reuse one buffer.
func (s *SPM) AppendBlocks(dst []BlockInfo) []BlockInfo {
	for _, r := range s.regs {
		if r.alloc {
			dst = append(dst, BlockInfo{ID: r.id, Addr: r.addr, Size: r.size, Dirty: r.dirty, Pinned: r.pin})
		}
	}
	return dst
}

// evictAt turns the allocated region at index i into free space and
// returns the eviction record. It does not coalesce.
func (s *SPM) evictAt(i int, remain useCounts) Eviction {
	r := &s.regs[i]
	if !r.alloc {
		panic("spm: evictAt on free region")
	}
	ev := Eviction{ID: r.id, Size: r.size, Dirty: r.dirty, RemainUses: remain.of(r)}
	if s.open > 0 {
		s.journal = append(s.journal, indexEdit{num: r.num, slot: r.addr + 1})
	}
	s.index[r.num] = 0
	s.used -= r.size
	r.alloc = false
	r.dirty = false
	r.pin = false
	r.id = tile.ID{}
	return ev
}

// coalesceAround merges the region at index i with free neighbours.
func (s *SPM) coalesceAround(i int) {
	if s.regs[i].alloc {
		return
	}
	lo, hi := i, i
	for lo > 0 && !s.regs[lo-1].alloc {
		lo--
	}
	for hi+1 < len(s.regs) && !s.regs[hi+1].alloc {
		hi++
	}
	if lo == hi {
		return
	}
	var size int64
	for j := lo; j <= hi; j++ {
		size += s.regs[j].size
	}
	s.regs[lo] = region{addr: s.regs[lo].addr, size: size}
	s.regs = append(s.regs[:lo+1], s.regs[hi+1:]...)
}

// ErrNoSpace is returned by Allocate when the request cannot be placed
// even after evicting every unpinned block.
type ErrNoSpace struct {
	ID   tile.ID
	Size int64
}

func (e *ErrNoSpace) Error() string {
	return fmt.Sprintf("spm: cannot place %v (%d bytes): insufficient evictable space", e.ID, e.Size)
}

// Allocate places tile id (size bytes) in the scratchpad and pins it.
// It returns the evictions performed to make room. If the tile is
// already present it is pinned and no work is done. The remainUses
// function supplies the remaining-use count of resident tiles for the
// spill heuristics; it must not be nil. The returned slice is scratch
// owned by the SPM, valid only until the next Allocate call; callers
// that keep evictions must copy them out.
func (s *SPM) Allocate(id tile.ID, size int64, remainUses func(tile.ID) int) ([]Eviction, error) {
	if size <= 0 {
		return nil, fmt.Errorf("spm: allocation size must be positive, got %d for %v", size, id)
	}
	evs, ok := s.allocate(id, s.num(id), size, useCounts{fn: remainUses})
	if !ok {
		return evs, &ErrNoSpace{ID: id, Size: size}
	}
	return evs, nil
}

// AllocateBound is Allocate on a bound scratchpad (Bind) of tile id
// numbered n, for a caller that keeps the remaining-use counts in a
// table by tile number: the victim search then reads a block's count
// without naming its tile. The block keeps id, its evictions' name. A
// request Allocate refuses reports false: a failed placement allocates
// no error value.
func (s *SPM) AllocateBound(id tile.ID, n int32, size int64, remain []int32) ([]Eviction, bool) {
	return s.allocate(id, n, size, useCounts{tab: remain})
}

// allocate places tile id numbered n, -1 when the first-seen numbering
// has not met it yet, or reports false.
func (s *SPM) allocate(id tile.ID, n int32, size int64, remain useCounts) ([]Eviction, bool) {
	if size <= 0 {
		return nil, false
	}
	if n < 0 {
		n = int32(len(s.index))
		s.intern(id, n)
		s.index = append(s.index, 0)
	} else if s.index[n] != 0 {
		s.regs[s.find(s.index[n]-1)].pin = true
		return nil, true
	}
	if size > s.cap {
		return nil, false
	}

	// 1. In-place replacement: an equally-sized, dead, unpinned block.
	// Prefer clean victims (no write-back traffic).
	if s.inPlace {
		best := -1
		for i := range s.regs {
			r := &s.regs[i]
			if !r.alloc || r.pin || r.size != size || remain.of(r) != 0 {
				continue
			}
			if best < 0 || (!r.dirty && s.regs[best].dirty) {
				best = i
			}
			if !r.dirty {
				break
			}
		}
		if best >= 0 {
			ev := s.evictAt(best, remain)
			s.place(best, id, n, size)
			s.evScratch = append(s.evScratch[:0], ev)
			return s.evScratch, true
		}
	}

	// 2. Best-fit free region.
	if best := s.bestFit(size); best >= 0 {
		s.place(best, id, n, size)
		return nil, true
	}

	// 3. Spill victims according to the policy.
	var victims run
	var ok bool
	switch s.policy {
	case PolicySmallestFirst:
		return s.allocateSmallestFirst(id, n, size, remain)
	case PolicyFirstFit:
		victims, ok = s.findFirstFitRun(size)
	default:
		victims, ok = s.findAlg2Run(size, remain)
	}
	if !ok {
		return nil, false
	}
	return s.evictRunAndPlace(victims, id, n, size, remain), true
}

// bestFit returns the index of the smallest free region that holds
// size bytes, or -1.
func (s *SPM) bestFit(size int64) int {
	best := -1
	for i := range s.regs {
		if r := &s.regs[i]; !r.alloc && r.size >= size && (best < 0 || r.size < s.regs[best].size) {
			best = i
		}
	}
	return best
}

// place installs tile id, numbered n and not resident, into the free
// region at index i, splitting a trailing fragment if the region is
// larger than size. The new block is pinned.
func (s *SPM) place(i int, id tile.ID, n int32, size int64) {
	r := s.regs[i]
	if r.alloc || r.size < size {
		panic("spm: place on unsuitable region")
	}
	blk := region{addr: r.addr, size: size, id: id, num: n, alloc: true, pin: true}
	if r.size == size {
		s.regs[i] = blk
	} else {
		frag := region{addr: r.addr + size, size: r.size - size}
		s.regs = append(s.regs, region{})
		copy(s.regs[i+2:], s.regs[i+1:])
		s.regs[i] = blk
		s.regs[i+1] = frag
	}
	if s.open > 0 {
		s.journal = append(s.journal, indexEdit{num: blk.num})
	}
	s.index[n] = blk.addr + 1
	s.used += size
}

// run identifies a contiguous window of region indices [lo, hi].
type run struct{ lo, hi int }

// findAlg2Run is Algorithm 2 of the paper: over all windows of
// consecutive unpinned regions with total size >= required, choose the
// one minimizing (fragment size, sum of size x remaining uses, block
// count), the earliest on a full tie. Free regions contribute size but
// no disadvantage. Only the shortest window from each start matters —
// a longer one only adds fragmentation — and the end of the shortest
// window never moves left as its start moves right, so one pass with
// two indices visits exactly those windows, in start order, keeping the
// three sums by adding the region that enters and subtracting the one
// that leaves: each block's remaining-use count is read once per call.
func (s *SPM) findAlg2Run(size int64, remain useCounts) (run, bool) {
	var best run
	var bestFrag, bestDisadv int64
	bestBlocks, found := 0, false
	s.weight = slices.Grow(s.weight[:0], len(s.regs))
	weight := s.weight[:len(s.regs)]
	var total, disadv int64 // over the window [lo, end)
	blocks, end := 0, 0
	for lo := 0; lo < len(s.regs); {
		for total < size && end < len(s.regs) && !s.regs[end].pin {
			r := &s.regs[end]
			weight[end] = 0
			if r.alloc {
				weight[end] = r.size * int64(remain.of(r))
				blocks++
			}
			total += r.size
			disadv += weight[end]
			end++
		}
		if total < size {
			// A pin or the end of the scratchpad stops the window short:
			// no window from lo, or from any later start before it, fits.
			lo, end = end+1, end+1
			total, disadv, blocks = 0, 0, 0
			continue
		}
		frag := total - size
		if !found || frag < bestFrag ||
			frag == bestFrag && (disadv < bestDisadv || disadv == bestDisadv && blocks < bestBlocks) {
			best = run{lo, end - 1}
			bestFrag, bestDisadv, bestBlocks = frag, disadv, blocks
			found = true
		}
		total -= s.regs[lo].size
		disadv -= weight[lo]
		if s.regs[lo].alloc {
			blocks--
		}
		lo++
	}
	return best, found
}

// findFirstFitRun is MemPolicy1: the first single unpinned allocated
// block large enough (counting adjacent free space) to hold the
// request; if no single block suffices, the first window that does.
func (s *SPM) findFirstFitRun(size int64) (run, bool) {
	for i := range s.regs {
		r := &s.regs[i]
		if !r.alloc || r.pin {
			continue
		}
		// Include free neighbours, matching how an implementation
		// would reuse the hole plus surrounding gaps.
		lo, hi := i, i
		total := r.size
		for lo > 0 && !s.regs[lo-1].alloc {
			lo--
			total += s.regs[lo].size
		}
		for hi+1 < len(s.regs) && !s.regs[hi+1].alloc {
			hi++
			total += s.regs[hi].size
		}
		if total >= size {
			return run{lo, hi}, true
		}
	}
	// Fallback: first multi-block window that fits, to guarantee
	// progress on requests larger than any single block.
	for lo := 0; lo < len(s.regs); lo++ {
		if s.regs[lo].pin {
			continue
		}
		var total int64
		for hi := lo; hi < len(s.regs); hi++ {
			if s.regs[hi].pin {
				break
			}
			total += s.regs[hi].size
			if total >= size {
				return run{lo, hi}, true
			}
		}
	}
	return run{}, false
}

// evictRunAndPlace evicts the allocated regions inside the window,
// coalesces the result into one free region, and places the new block
// at its start.
func (s *SPM) evictRunAndPlace(w run, id tile.ID, n int32, size int64, remain useCounts) []Eviction {
	startAddr := s.regs[w.lo].addr
	evs := s.evScratch[:0]
	for i := w.lo; i <= w.hi; i++ {
		if s.regs[i].alloc {
			evs = append(evs, s.evictAt(i, remain))
		}
	}
	s.evScratch = evs
	s.coalesceAround(w.lo)
	// Coalescing may have absorbed free neighbours before the window;
	// locate the free region containing the window's start address.
	i := sort.Search(len(s.regs), func(i int) bool {
		return s.regs[i].addr+s.regs[i].size > startAddr
	})
	if i == len(s.regs) || s.regs[i].alloc {
		panic("spm: evicted window is not free")
	}
	s.place(i, id, n, size)
	return evs
}

// allocateSmallestFirst is MemPolicy2: repeatedly evict the smallest
// unpinned block until a free region large enough exists; on false, the
// blocks it returns were evicted all the same.
func (s *SPM) allocateSmallestFirst(id tile.ID, n int32, size int64, remain useCounts) ([]Eviction, bool) {
	evs := s.evScratch[:0]
	defer func() { s.evScratch = evs }()
	for {
		// A free region may have become large enough.
		if best := s.bestFit(size); best >= 0 {
			s.place(best, id, n, size)
			return evs, true
		}
		smallest := -1
		for i := range s.regs {
			r := &s.regs[i]
			if !r.alloc || r.pin {
				continue
			}
			if smallest < 0 || r.size < s.regs[smallest].size {
				smallest = i
			}
		}
		if smallest < 0 {
			return evs, false
		}
		evs = append(evs, s.evictAt(smallest, remain))
		s.coalesceAround(smallest)
	}
}

// CheckInvariants verifies the internal representation: regions tile
// [0, capacity) exactly, free neighbours are coalesced, and the tile
// index matches the regions. Intended for tests.
func (s *SPM) CheckInvariants() error {
	var addr int64
	allocBytes := int64(0)
	for i, r := range s.regs {
		if r.addr != addr {
			return fmt.Errorf("region %d: addr %#x, want %#x", i, r.addr, addr)
		}
		if r.size <= 0 {
			return fmt.Errorf("region %d: non-positive size %d", i, r.size)
		}
		if r.alloc {
			allocBytes += r.size
			// A tile held twice fails here too: its one slot names one block.
			if n := s.num(r.id); n != r.num || s.index[n] != r.addr+1 {
				return fmt.Errorf("index for %v: numbered %d, block carries %d at slot %#x, want %#x", r.id, n, r.num, s.index[r.num], r.addr+1)
			}
		} else if i+1 < len(s.regs) && !s.regs[i+1].alloc {
			return fmt.Errorf("regions %d and %d both free (not coalesced)", i, i+1)
		}
		addr += r.size
	}
	if addr != s.cap {
		return fmt.Errorf("regions cover %d bytes, capacity %d", addr, s.cap)
	}
	if allocBytes != s.used {
		return fmt.Errorf("allocated bytes %d, tracked %d", allocBytes, s.used)
	}
	entries := 0
	for _, slot := range s.index {
		if slot != 0 {
			entries++
		}
	}
	if s.numBlocks() != entries {
		return fmt.Errorf("%d allocated regions, %d index entries", s.numBlocks(), entries)
	}
	return nil
}
