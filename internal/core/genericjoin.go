package core

import (
	"context"
	"sync/atomic"

	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// GenericJoinOptions configure a Generic-Join run.
type GenericJoinOptions struct {
	// Order is the global variable order; nil selects the degree-order
	// heuristic (most-constrained variable first).
	Order []string
	// Policy, when non-nil, resolves the variable order and takes
	// precedence over Order (explicit, heuristic, or the cost-based
	// optimizer of internal/planner).
	Policy OrderPolicy
	// Parallelism is the number of worker goroutines sharding the
	// depth-0 intersection. Values <= 1 run the serial search. Output
	// order and Stats totals are identical at every setting.
	Parallelism int
	// Store, when non-nil, serves the per-atom tries (a long-lived DB
	// passes its own); nil uses the process-global trie store.
	Store *TrieStore
	// Ctx, when non-nil, cancels the run: workers poll it and unwind
	// promptly, and the entry points return ctx.Err(). Nil means no
	// cancellation.
	Ctx context.Context
}

// plan resolves the options into an execution plan: Policy wins when
// set, otherwise Order (nil Order selects the heuristic). Tries come
// from o.Store (nil = the process-global store).
func (o GenericJoinOptions) plan(q *Query) (*Plan, error) {
	policy := o.Policy
	if policy == nil && o.Order != nil {
		policy = ExplicitOrder(o.Order)
	}
	return BuildPlanIn(o.Store, q, policy)
}

// GenericJoin evaluates the query with the Generic-Join algorithm of
// [52] (the generalization of Algorithm 1): fix a global variable
// order; at each level intersect, across all atoms containing the
// current variable, the distinct values compatible with the current
// prefix binding; recurse per value. With sorted-trie intersections the
// runtime is Õ(N^{ρ*}) — the AGM bound — by the Theorem 4.1 analysis.
func GenericJoin(q *Query, opts GenericJoinOptions) (*relation.Relation, *Stats, error) {
	stats := &Stats{}
	out := relation.NewBuilder(q.OutputName(), q.Vars...)
	err := GenericJoinVisit(q, opts, stats, func(t relation.Tuple) error {
		return out.Add(t...)
	})
	if err != nil {
		return nil, nil, err
	}
	rel := out.Build()
	stats.Output = rel.Len()
	return rel, stats, nil
}

// GenericJoinCount runs Generic-Join without materializing the output,
// returning only the result cardinality. This is the enumeration mode
// the paper highlights: WCOJ algorithms can stream output tuples with
// no intermediate state beyond the search stack. Under parallelism
// each worker counts locally; no tuples are buffered.
func GenericJoinCount(q *Query, opts GenericJoinOptions) (int, *Stats, error) {
	p, err := opts.plan(q)
	if err != nil {
		return 0, nil, err
	}
	return GenericJoinPlanCount(opts.Ctx, p, opts.Parallelism)
}

// GenericJoinPlanCount is GenericJoinCount over a prebuilt plan — the
// re-execution path of prepared queries, with context cancellation.
func GenericJoinPlanCount(ctx context.Context, p *Plan, parallelism int) (int, *Stats, error) {
	stats := &Stats{}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	n := 0
	var err error
	if parallelism <= 1 || len(p.Order) == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		w := newGJWorker(p, stats, func(relation.Tuple) error {
			n++
			return nil
		})
		w.stop = &stop
		w.budget = BudgetFrom(ctx)
		err = CtxAbortErr(ctx, w.rec(0))
	} else {
		vals, starts := p.TopMorsels(parallelism)
		stats.Recursions++
		stats.IntersectValues += len(vals)
		n, err = RunShardedCount(ctx, vals, starts, parallelism, stats, gjShardRun(p, BudgetFrom(ctx)))
	}
	if err != nil {
		return 0, nil, err
	}
	stats.Output = n
	return n, stats, nil
}

// GenericJoinVisit streams the join result to emit in the canonical
// (variable-order lexicographic) sequence. The Tuple passed to emit is
// reused between calls; emit must copy it to retain it. With
// opts.Parallelism > 1 the depth-0 intersection is sharded across
// workers and per-chunk results are replayed in deterministic chunk
// order, so the emit sequence is identical to the serial run.
func GenericJoinVisit(q *Query, opts GenericJoinOptions, stats *Stats, emit func(relation.Tuple) error) error {
	p, err := opts.plan(q)
	if err != nil {
		return err
	}
	return GenericJoinPlanVisit(opts.Ctx, p, opts.Parallelism, stats, emit)
}

// GenericJoinPlanVisit is GenericJoinVisit over a prebuilt plan — the
// re-execution path of prepared queries, with context cancellation.
func GenericJoinPlanVisit(ctx context.Context, p *Plan, parallelism int, stats *Stats, emit func(relation.Tuple) error) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	if parallelism <= 1 || len(p.Order) == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		w := newGJWorker(p, stats, emit)
		w.stop = &stop
		w.budget = BudgetFrom(ctx)
		return CtxAbortErr(ctx, w.rec(0))
	}
	vals, starts := p.TopMorsels(parallelism)
	// Account for the root node exactly as the serial search does.
	stats.Recursions++
	stats.IntersectValues += len(vals)
	return RunShardedTop(ctx, vals, starts, parallelism, len(p.Q.Vars), stats, emit, gjShardRun(p, BudgetFrom(ctx)))
}

// gjShardRun adapts the Generic-Join search to the sharded runner:
// each chunk gets a fresh worker iterating its slice of the
// precomputed depth-0 intersection. All workers draw from the one
// budget, so it bounds the run's total node count.
func gjShardRun(p *Plan, budget *NodeBudget) shardRun {
	return func(chunk []relation.Value, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error {
		// Charge the chunk's depth-0 values upfront: per-chunk Stats
		// restart the &255 poll stride, so without this a fleet of
		// small chunks could dodge the budget entirely.
		if !budget.Spend(int64(len(chunk))) {
			return ErrNodeBudget
		}
		w := newGJWorker(p, st, emit)
		w.stop = stop
		w.budget = budget
		return w.iterate(0, chunk)
	}
}

// gjAtom is the per-atom, per-worker execution state of Generic-Join,
// navigating the trie's CSR index by segment.
type gjAtom struct {
	trie *trie.Trie
	// levelOf[d] is this atom's trie level bound when the global
	// variable at depth d is bound, or -1 if the atom lacks that
	// variable.
	levelOf []int
	// segLo/segHi[l] is the candidate segment range at trie level l
	// after binding the atom's first l variables (the children span of
	// the segment chosen at level l-1; the whole level for l = 0).
	segLo []int
	segHi []int
	// segCur[l] is the narrowing cursor within [segLo[l], segHi[l]):
	// each per-value sweep probes ascending values, so arm resets it to
	// segLo once per sweep and every find gallops forward from the
	// previous hit — amortized O(1) per probe. A level can be swept
	// many times (once per combination of the other atoms' bindings),
	// which is why the cursor is separate from segLo.
	segCur []int
	// segAt[l] is the segment chosen at level l by the current prefix;
	// its row range (SegRows) is what the aggregate engine's products
	// and memo keys are built from.
	segAt []int
}

// reset re-arms the atom for a fresh search from the root.
func (ga *gjAtom) reset() {
	ga.segLo[0], ga.segHi[0] = 0, ga.trie.NumSegs(0)
}

// arm starts a fresh ascending sweep over the level-l candidates.
func (ga *gjAtom) arm(l int) {
	ga.segCur[l] = ga.segLo[l]
}

// bind locates v at trie level l within the candidate range, recording
// the chosen segment and pushing its children span. It reports whether
// v is present (it always is when v came from the level intersection).
func (ga *gjAtom) bind(l int, v relation.Value) bool {
	s, ok := ga.trie.FindSegFrom(l, ga.segCur[l], ga.segHi[l], v)
	if !ok {
		ga.segCur[l] = s
		return false
	}
	ga.segCur[l] = s + 1
	ga.segAt[l] = s
	if l+1 < ga.trie.Depth() {
		ga.segLo[l+1], ga.segHi[l+1] = ga.trie.Children(l, s)
	}
	return true
}

// rows returns the row range selected after this atom's first l
// variables are bound: the whole relation for l = 0, the chosen
// level-(l-1) segment's rows otherwise. The range sizes feed the
// aggregate engine's suffix products and memo keys, byte-identical to
// the row-stack ranges of the previous layout.
func (ga *gjAtom) rows(l int) (lo, hi int) {
	if l == 0 {
		return 0, ga.trie.Len()
	}
	return ga.trie.SegRows(l-1, ga.segAt[l-1])
}

// gjWorker is the mutable state of one search goroutine: the per-atom
// range stacks, the binding tuple and the per-depth scratch buffers.
// Workers share the Plan read-only.
type gjWorker struct {
	plan    *Plan
	atoms   []*gjAtom
	binding relation.Tuple
	scratch [][]relation.Value
	ranges  []trie.LevelRange
	stats   *Stats
	emit    func(relation.Tuple) error
	// stop, when non-nil, is polled every few hundred search nodes so a
	// cancelled (or aborted) run unwinds promptly even when it emits
	// rarely; the recursion returns ErrAborted.
	stop *atomic.Bool
	// budget, when non-nil, is drawn down at the same stride; an
	// exhausted budget unwinds with ErrNodeBudget.
	budget *NodeBudget
}

func newGJWorker(p *Plan, stats *Stats, emit func(relation.Tuple) error) *gjWorker {
	w := &gjWorker{
		plan:    p,
		atoms:   make([]*gjAtom, len(p.Tries)),
		binding: make(relation.Tuple, len(p.Q.Vars)),
		scratch: make([][]relation.Value, len(p.Order)),
		ranges:  make([]trie.LevelRange, 0, len(p.Tries)),
		stats:   stats,
		emit:    emit,
	}
	for i, tr := range p.Tries {
		k := tr.Depth()
		idx := make([]int, 4*k)
		ga := &gjAtom{
			trie:    tr,
			levelOf: p.LevelOf[i],
			segLo:   idx[:k:k],
			segHi:   idx[k : 2*k : 2*k],
			segCur:  idx[2*k : 3*k : 3*k],
			segAt:   idx[3*k:],
		}
		ga.reset()
		w.atoms[i] = ga
	}
	return w
}

// arm starts a fresh ascending per-value sweep at depth d: every
// participating atom's narrowing cursor rewinds to its candidate
// range's start.
func (w *gjWorker) arm(d int) {
	for _, ai := range w.plan.Participants[d] {
		ga := w.atoms[ai]
		ga.arm(ga.levelOf[d])
	}
}

// rec is the Generic-Join recursion: intersect the participating
// level ranges at depth d and recurse per value. w.ranges holds
// arena-loaned level ranges as per-depth scratch.
//
//wcojlint:retains w.ranges is scratch consumed within this recursion step, under one pinned snapshot
func (w *gjWorker) rec(d int) error {
	w.stats.Recursions++
	if w.stats.Recursions&255 == 0 {
		if w.stop != nil && w.stop.Load() {
			return ErrAborted
		}
		if !w.budget.Spend(256) {
			return ErrNodeBudget
		}
	}
	if d == len(w.plan.Order) {
		return w.emit(w.binding)
	}
	w.ranges = w.ranges[:0]
	for _, ai := range w.plan.Participants[d] {
		ga := w.atoms[ai]
		l := ga.levelOf[d]
		w.ranges = append(w.ranges, ga.trie.SegLevel(l, ga.segLo[l], ga.segHi[l]))
	}
	vals := trie.IntersectLevels(w.scratch[d][:0], w.ranges)
	w.scratch[d] = vals
	w.stats.IntersectValues += len(vals)
	return w.iterate(d, vals)
}

// iterate runs the per-value loop of depth d over vals: bind the
// value, narrow every participating atom's range, recurse. The
// parallel engine calls it directly at depth 0 with one chunk of the
// precomputed top-level intersection.
func (w *gjWorker) iterate(d int, vals []relation.Value) error {
	w.arm(d)
	for _, v := range vals {
		w.binding[w.plan.OutPos[d]] = v
		ok := true
		for _, ai := range w.plan.Participants[d] {
			ga := w.atoms[ai]
			if !ga.bind(ga.levelOf[d], v) {
				ok = false
				break
			}
		}
		if !ok {
			continue // cannot happen: v came from the intersection
		}
		if err := w.rec(d + 1); err != nil {
			return err
		}
	}
	return nil
}
