package core

// The worst-case optimal search. Generic-Join [52] and Leapfrog
// Triejoin [66] are one algorithm: fix a global variable order; at
// depth d find the values of Order[d] that every participating atom
// admits under the current prefix, bind each in turn and descend. With
// sorted-trie intersections either runs in Õ(N^{ρ*}), the AGM bound,
// by the Theorem 4.1 analysis. The two differ only in how a depth's
// matches are produced, the level walk (Walk); everything else is
// written once here:
//
//   - the search modes: enumeration (rec), and the aggregate-aware
//     count, exists and projected visit driven by the level
//     classification of internal/agg;
//   - the aggregate shortcuts: free-counted suffix levels multiply the
//     active atoms' row-range sizes (product), the deepest level of a
//     counting or existence run hands the participants' ranges to the
//     trie kernels (tailPoll charges their matches), and bound levels
//     consult a per-(trie,prefix) memo (memoKey);
//   - the stop-flag and node-budget polls;
//   - the depth-0 morsel loop of the sharded runs (openMorsel), which
//     binds precomputed top-level values exactly as a Generic-Join
//     level does, whatever the walk.
//
// Per atom a worker keeps one cursor per trie level over the CSR
// segment keys; both walks move the same cursors, so the row ranges
// behind products and memo keys and the level ranges behind the
// kernels read the same state under either walk. Walks are selected by
// a branch inside the concrete worker, never by an interface call or
// a func value per search node: either would send the per-node state
// to the heap.

import (
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// Walk selects how the search produces the matches of one depth, the
// one step in which Generic-Join and Leapfrog Triejoin differ.
type Walk uint8

const (
	// WalkGeneric materializes the depth's intersection with the trie
	// kernels (trie.IntersectLevels), then binds each value by a
	// galloping probe per participant: Generic-Join [52].
	WalkGeneric Walk = iota
	// WalkLeapfrog moves the participants' level cursors in lockstep
	// without materializing the level: Leapfrog Triejoin [66].
	WalkLeapfrog
)

// atom is the per-worker cursor state of one atom over its trie's CSR
// index, one entry per trie level l.
type atom struct {
	trie *trie.Trie
	// lo/hi[l] is the candidate segment range at level l: the children
	// span of the segment chosen at level l-1, the whole level for l=0.
	lo []int
	hi []int
	// cur[l] is the cursor within [lo[l], hi[l]). Every walk of a level
	// moves it forward only, so each probe or seek gallops from the
	// previous position: amortized O(1 + log jump).
	cur []int
	// at[l] is the segment the current prefix chose at level l; its
	// row range is what products and memo keys are built from.
	at []int
}

// choose records segment s as the level-l binding and opens its
// children span as the level-(l+1) candidates.
func (a *atom) choose(l, s int) {
	a.at[l] = s
	if l+1 < a.trie.Depth() {
		a.lo[l+1], a.hi[l+1] = a.trie.Children(l, s)
	}
}

// rows returns the row range selected after the atom's first l
// variables are bound: the whole relation for l = 0, the chosen
// level-(l-1) segment's rows otherwise.
func (a *atom) rows(l int) (lo, hi int) {
	if l == 0 {
		return 0, a.trie.Len()
	}
	return a.trie.SegRows(l-1, a.at[l-1])
}

// part is one participant of a depth: an atom and the trie level the
// depth binds in it.
type part struct {
	a *atom
	l int
}

func (pt part) key() relation.Value { return pt.a.trie.SegKey(pt.l, pt.a.cur[pt.l]) }

// bind positions the participant on v, galloping forward from its
// cursor, and chooses v's segment. It reports whether v is present (it
// always is when v came from the level's intersection).
func (pt part) bind(v relation.Value) bool {
	a, l := pt.a, pt.l
	s, ok := a.trie.FindSegFrom(l, a.cur[l], a.hi[l], v)
	if !ok {
		a.cur[l] = s
		return false
	}
	a.cur[l] = s + 1
	a.choose(l, s)
	return true
}

// seek moves the participant's cursor to its first key >= v and
// reports whether the level still has one.
func (pt part) seek(v relation.Value) bool {
	a, l := pt.a, pt.l
	a.cur[l] = a.trie.SeekSeg(l, a.cur[l], a.hi[l], v)
	return a.cur[l] < a.hi[l]
}

// level is the state of one depth's walk in progress.
type level struct {
	// vals are the values to bind in order: the materialized
	// intersection of WalkGeneric (kept in buf, reused across opens),
	// or one depth-0 morsel of a sharded run. i indexes the next one;
	// tally counts each bound value into Stats.IntersectValues.
	vals  []relation.Value
	buf   []relation.Value
	i     int
	tally bool
	// leap marks a leapfrog walk: p is the participant to move next,
	// matched that it sits on the last match and must step past it,
	// steps the moves since open (polled every 256), and done that
	// some cursor ran off its range.
	leap    bool
	matched bool
	done    bool
	p       int
	steps   int
}

// run is what every worker of one search shares read-only: the plan,
// its aggregate classification (nil for plain enumeration), the walk
// and the node budget all workers draw from.
type run struct {
	plan   *Plan
	cls    *agg.Classification
	walk   Walk
	budget *NodeBudget
}

// worker is the mutable state of one search goroutine. Workers share
// only what the run points to; the per-depth participant lists are
// private because the leapfrog walk sorts them in place.
type worker struct {
	run
	atoms   []atom
	parts   [][]part
	levels  []level
	binding relation.Tuple
	ranges  []trie.LevelRange
	stats   *Stats
	emit    func(relation.Tuple) error
	// stop, when non-nil, is polled every few hundred search nodes:
	// cancellation, a sibling shard's failure and, in a sharded EXISTS,
	// a sibling's witness all set it. A fired poll unwinds the search.
	stop *atomic.Bool
	// aborted records a fired poll (the counting modes have no error
	// path); budgetHit qualifies it: the node budget ran out.
	aborted   bool
	budgetHit bool
	// overflow records that a count exceeded int64 somewhere below.
	overflow bool
	// tailDebt holds kernel-tail matches not yet charged to the budget.
	tailDebt int64
	// memo caches subtree results of the aggregate modes; projPos[i] is
	// the binding position of cls.Spec.Project[i], projBuf the reused
	// projected tuple and keyRanges the memo key's scratch.
	memo      *agg.Memo
	projPos   []int
	projBuf   relation.Tuple
	keyRanges []int
}

func (r *run) worker(stats *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) *worker {
	p := r.plan
	w := &worker{
		run:     *r,
		atoms:   make([]atom, len(p.Tries)),
		parts:   make([][]part, len(p.Order)),
		levels:  make([]level, len(p.Order)),
		binding: make(relation.Tuple, len(p.Q.Vars)),
		ranges:  make([]trie.LevelRange, 0, len(p.Tries)),
		stats:   stats,
		emit:    emit,
		stop:    stop,
	}
	levels := 0
	for _, tr := range p.Tries {
		levels += tr.Depth()
	}
	idx := make([]int, 4*levels)
	for i, tr := range p.Tries {
		k := tr.Depth()
		w.atoms[i] = atom{
			trie: tr,
			lo:   idx[:k:k],
			hi:   idx[k : 2*k : 2*k],
			cur:  idx[2*k : 3*k : 3*k],
			at:   idx[3*k : 4*k : 4*k],
		}
		w.atoms[i].hi[0] = tr.NumSegs(0)
		idx = idx[4*k:]
	}
	n := 0
	for _, ps := range p.Participants {
		n += len(ps)
	}
	flat := make([]part, 0, n)
	for d, ps := range p.Participants {
		for _, ai := range ps {
			flat = append(flat, part{a: &w.atoms[ai], l: p.LevelOf[ai][d]})
		}
		w.parts[d] = flat[len(flat)-len(ps):]
	}
	if r.cls != nil {
		w.memo = agg.NewMemo()
		if proj := r.cls.Spec.Project; len(proj) > 0 {
			w.projPos = make([]int, len(proj))
			w.projBuf = make(relation.Tuple, len(proj))
			for i, v := range proj {
				for j, qv := range p.Q.Vars {
					if qv == v {
						w.projPos[i] = j
					}
				}
			}
		}
	}
	return w
}

// stopped polls the stop flag, recording an abort when it is set.
func (w *worker) stopped() bool {
	if w.stop != nil && w.stop.Load() {
		w.aborted = true
		return true
	}
	return false
}

// poll checks the stop flag and draws n nodes from the budget. It
// reports whether the search may go on.
func (w *worker) poll(n int64) bool {
	if w.stopped() {
		return false
	}
	if !w.budget.Spend(n) {
		w.aborted, w.budgetHit = true, true
		return false
	}
	return true
}

// tailPoll polls the stop flag after a kernel tail and charges its c
// matches to the budget: the kernels have no poll sites, and a tail
// under a single recursion can hold most of a run's work. Charges
// collect in tailDebt and are drawn in strides of 256, so small tails
// cost no atomic add apiece. It reports whether the search may go on.
func (w *worker) tailPoll(c int) bool {
	if w.stopped() {
		return false
	}
	if w.tailDebt += int64(c); w.tailDebt >= 256 {
		if !w.budget.Spend(w.tailDebt) {
			w.aborted, w.budgetHit = true, true
			return false
		}
		w.tailDebt = 0
	}
	return true
}

// abortErr is the error a fired poll unwinds with: ErrNodeBudget for
// an exhausted budget, ErrAborted for the stop flag, nil if none fired.
func (w *worker) abortErr() error {
	switch {
	case w.budgetHit:
		return ErrNodeBudget
	case w.aborted:
		return ErrAborted
	}
	return nil
}

// levelRanges assembles the depth-d participants' candidate ranges,
// the input of the trie kernels, into the worker's scratch.
//
//wcojlint:retains w.ranges is scratch consumed by the caller's intersection, under one pinned snapshot
func (w *worker) levelRanges(d int) []trie.LevelRange {
	w.ranges = w.ranges[:0]
	for _, pt := range w.parts[d] {
		a := pt.a
		w.ranges = append(w.ranges, a.trie.SegLevel(pt.l, a.lo[pt.l], a.hi[pt.l]))
	}
	return w.ranges
}

// arm rewinds the depth-d participants' cursors to their candidate
// ranges' starts, ready for one ascending walk.
func (w *worker) arm(d int) {
	for _, pt := range w.parts[d] {
		pt.a.cur[pt.l] = pt.a.lo[pt.l]
	}
}

// open starts the walk of depth d under the current prefix; next then
// yields its matches.
func (w *worker) open(d int) {
	w.arm(d)
	lv := &w.levels[d]
	if w.walk == WalkGeneric {
		lv.buf = trie.IntersectLevels(lv.buf[:0], w.levelRanges(d))
		lv.vals, lv.i, lv.leap, lv.tally = lv.buf, 0, false, false
		w.stats.IntersectValues += len(lv.vals)
		return
	}
	lv.leap, lv.matched, lv.done, lv.p, lv.steps = true, false, false, 0, 0
	parts := w.parts[d]
	for _, pt := range parts {
		if pt.a.cur[pt.l] >= pt.a.hi[pt.l] {
			lv.done = true // an empty participant empties the level
			return
		}
	}
	sortByKey(parts)
}

// openMorsel starts depth 0 over one morsel of a sharded run: a
// contiguous run of the depth-0 intersection the coordinator computed.
// Whatever the walk, each value is bound by the galloping probe. The
// values count into IntersectValues as the walk counts a serial level:
// whole for WalkGeneric (the coordinator counts the intersection), one
// by one as reached for WalkLeapfrog.
//
//wcojlint:retains the morsel is read-only run state: the coordinator's depth-0 intersection outlives every worker
func (w *worker) openMorsel(vals []relation.Value) {
	w.arm(0)
	lv := &w.levels[0]
	lv.vals, lv.i, lv.leap, lv.tally = vals, 0, false, w.walk == WalkLeapfrog
}

// next binds the next match of the open depth-d walk, recording it in
// the binding tuple, and reports whether there was one. A fired poll
// ends every walk.
func (w *worker) next(d int) bool {
	if w.aborted {
		return false
	}
	lv := &w.levels[d]
	if lv.leap {
		return w.leapfrog(d, lv)
	}
	for lv.i < len(lv.vals) {
		v := lv.vals[lv.i]
		lv.i++
		ok := true
		for _, pt := range w.parts[d] {
			if !pt.bind(v) {
				ok = false // cannot happen: v came from the intersection
				break
			}
		}
		if ok {
			if lv.tally {
				w.stats.IntersectValues++
			}
			w.binding[w.plan.OutPos[d]] = v
			return true
		}
	}
	return false
}

// leapfrog walks one depth by Veldhuizen's Leapfrog Triejoin [66],
// the work-horse of the LogicBlox engine, resumed once per match. The
// participants' level cursors are kept sorted by key from p: the one
// at p seeks to the largest key, held by its predecessor, and when the
// two agree so do all k. Each seek gallops forward from the cursor, so
// a pass over a level costs amortized O(1 + log jump) per move and the
// level is never materialized. A level whose matches all have tiny
// subtrees (memo hits, free-counted products) can seek through an
// enormous range with few recursions underneath to poll, so the walk
// polls every 256 moves itself.
func (w *worker) leapfrog(d int, lv *level) bool {
	if lv.done {
		return false
	}
	parts := w.parts[d]
	k, p := len(parts), lv.p
	if lv.matched {
		lv.matched = false
		a, l := parts[p].a, parts[p].l
		if a.cur[l]++; a.cur[l] >= a.hi[l] {
			lv.done = true
			return false
		}
		if p++; p == k {
			p = 0
		}
	}
	for {
		if lv.steps++; lv.steps&255 == 0 && !w.poll(256) {
			return false
		}
		prev := p - 1
		if prev < 0 {
			prev = k - 1
		}
		x, xmax := parts[p].key(), parts[prev].key()
		if x == xmax {
			w.stats.IntersectValues++
			for _, pt := range parts {
				pt.a.choose(pt.l, pt.a.cur[pt.l])
			}
			w.binding[w.plan.OutPos[d]] = x
			lv.p, lv.matched = p, true
			return true
		}
		if !parts[p].seek(xmax) {
			lv.done = true
			return false
		}
		if p++; p == k {
			p = 0
		}
	}
}

// sortByKey orders freshly armed participants by current key, the
// leapfrog invariant. An insertion sort: k is the number of atoms on
// one level, single digits, and unlike sort.Slice it does not
// allocate.
func sortByKey(parts []part) {
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j].key() < parts[j-1].key(); j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
}

// rec enumerates every full binding below depth d to emit.
func (w *worker) rec(d int) error {
	w.stats.Recursions++
	if w.stats.Recursions&255 == 0 && !w.poll(256) {
		return w.abortErr()
	}
	if d == len(w.plan.Order) {
		return w.emit(w.binding)
	}
	w.open(d)
	return w.recEach(d)
}

// recEach recurses below every match of the open depth-d walk.
func (w *worker) recEach(d int) error {
	for w.next(d) {
		if err := w.rec(d + 1); err != nil {
			return err
		}
	}
	return w.abortErr()
}

// product multiplies the active atoms' current row-range sizes — the
// number of suffix extensions below depth d when every remaining level
// is free-counted. Overflow marks the worker instead of wrapping; the
// entry points turn the mark into agg.ErrCountOverflow.
func (w *worker) product(d int) int64 {
	prod := int64(1)
	for j, ai := range w.cls.ActiveAtoms[d] {
		lo, hi := w.atoms[ai].rows(w.cls.BoundLevel[d][j])
		var ok bool
		prod, ok = agg.Mul(prod, int64(hi-lo))
		if !ok {
			w.overflow = true
			return 0
		}
		if prod == 0 {
			return 0
		}
	}
	return prod
}

// productNonEmpty is the existence twin of product: every active
// atom's range is non-empty. No multiplication, so no overflow.
func (w *worker) productNonEmpty(d int) bool {
	for j, ai := range w.cls.ActiveAtoms[d] {
		lo, hi := w.atoms[ai].rows(w.cls.BoundLevel[d][j])
		if hi <= lo {
			return false
		}
	}
	return true
}

// memoKey builds the subtree signature at depth d: the (lo,hi) range
// of every active atom. Identical signatures have identical subtree
// results regardless of the prefix that produced them.
func (w *worker) memoKey(d int) []byte {
	w.keyRanges = w.keyRanges[:0]
	for j, ai := range w.cls.ActiveAtoms[d] {
		lo, hi := w.atoms[ai].rows(w.cls.BoundLevel[d][j])
		w.keyRanges = append(w.keyRanges, lo, hi)
	}
	return w.memo.Key(d, w.keyRanges)
}

// count returns the number of full result tuples below the current
// prefix at depth d.
func (w *worker) count(d int) int64 {
	w.stats.Recursions++
	if w.aborted {
		return 0
	}
	if w.stats.Recursions&255 == 0 && !w.poll(256) {
		return 0
	}
	n := len(w.plan.Order)
	if d == n {
		return 1
	}
	if d >= w.cls.CountFrom {
		w.stats.AggMultiplies++
		return w.product(d)
	}
	useMemo := w.cls.MemoDepths[d] && w.memo.Enabled()
	if useMemo {
		if v, ok := w.memo.Get(w.memoKey(d)); ok {
			w.stats.AggMemoHits++
			return v
		}
	}
	var total int64
	if d == n-1 {
		// Tail shortcut: each match is one result, so the kernel
		// counts the participants' ranges without walking them.
		w.stats.AggMultiplies++
		c := trie.IntersectLevelsCount(w.levelRanges(d))
		w.stats.IntersectValues += c
		if !w.tailPoll(c) {
			return 0
		}
		total = int64(c)
	} else {
		w.open(d)
		total = w.countEach(d)
	}
	if useMemo && !w.overflow {
		// The memo's key scratch was clobbered by deeper probes;
		// rebuild it (the ranges at this depth are unchanged).
		w.memo.Put(w.memoKey(d), total)
	}
	return total
}

// countEach sums the counts below every match of the open depth-d
// walk.
func (w *worker) countEach(d int) int64 {
	var total int64
	for w.next(d) {
		total += w.count(d + 1)
		if total < 0 { // summation wrapped
			w.overflow = true
			total = 0
		}
	}
	return total
}

// countErr translates the worker's marks after a counting search.
func (w *worker) countErr() error {
	if err := w.abortErr(); err != nil {
		return err
	}
	if w.overflow {
		return agg.ErrCountOverflow
	}
	return nil
}

// exists reports whether any result tuple extends the current prefix,
// short-circuiting on the first witness.
func (w *worker) exists(d int) bool {
	if w.aborted || w.stopped() {
		return false
	}
	w.stats.Recursions++
	if w.stats.Recursions&255 == 0 && !w.poll(256) {
		// No error path: unwind with inconclusive falses; the entry
		// points translate the marks.
		return false
	}
	n := len(w.plan.Order)
	if d == n {
		return true
	}
	if d >= w.cls.CountFrom {
		w.stats.AggMultiplies++
		return w.productNonEmpty(d)
	}
	useMemo := w.cls.MemoDepths[d] && w.memo.Enabled()
	if useMemo {
		if v, ok := w.memo.Get(w.memoKey(d)); ok {
			w.stats.AggMemoHits++
			return v != 0
		}
	}
	found := false
	if d == n-1 {
		w.stats.AggMultiplies++
		c := 0
		if found = trie.IntersectLevelsAny(w.levelRanges(d)); found {
			c = 1
			w.stats.IntersectValues++
		}
		if !w.tailPoll(c) {
			return false
		}
	} else {
		w.open(d)
		found = w.existsEach(d)
	}
	if useMemo && !w.aborted && !w.stopped() {
		var v int64
		if found {
			v = 1
		}
		w.memo.Put(w.memoKey(d), v)
	}
	return found
}

// existsEach reports whether any match of the open depth-d walk has an
// extension.
func (w *worker) existsEach(d int) bool {
	for w.next(d) {
		if w.stopped() {
			return false
		}
		if w.exists(d + 1) {
			return true
		}
	}
	return false
}

// visit enumerates the projected prefix, emitting one tuple per prefix
// that has at least one extension.
func (w *worker) visit(d int) error {
	if w.stats.Recursions&255 == 0 && !w.poll(256) {
		return w.abortErr()
	}
	if d == w.cls.EnumEnd {
		if w.exists(d) {
			for i, p := range w.projPos {
				w.projBuf[i] = w.binding[p]
			}
			return w.emit(w.projBuf)
		}
		return nil
	}
	w.stats.Recursions++
	w.open(d)
	return w.visitEach(d)
}

// visitEach visits below every match of the open depth-d walk. The
// existence checks have no error path, so a poll they fired surfaces
// here, once the walk ends.
func (w *worker) visitEach(d int) error {
	for w.next(d) {
		if err := w.visit(d + 1); err != nil {
			return err
		}
	}
	return w.abortErr()
}
