package core

// Aggregate-aware Generic-Join. The plain engine (genericjoin.go)
// enumerates every result tuple; the entry points here answer COUNT,
// EXISTS and projection queries while skipping the enumeration work
// the answer does not need, driven by the level classification of
// internal/agg:
//
//   - free-counted suffix levels are never recursed into — the number
//     of extensions is the product of the active atoms' row-range
//     sizes (relations are duplicate-free sets, so a range size is a
//     distinct-tuple count), and the deepest level of a counting run
//     contributes the size of its intersection;
//   - bound levels below the projection boundary consult a
//     per-(trie,prefix) memo, so shared suffixes are counted once;
//   - EXISTS short-circuits on the first witness, across shards via a
//     shared stop flag.
//
// Results are byte-identical to enumerate-then-aggregate at every
// parallelism setting and under every order policy.

import (
	"context"
	"fmt"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// atomVarLists projects the query's atoms to their variable lists, the
// schema shape the agg classifier works on.
func atomVarLists(q *Query) [][]string {
	out := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = a.Vars
	}
	return out
}

// AggPlan builds the execution plan for an aggregate-aware run: the
// policy's variable order is sunk per spec (count-irrelevant variables
// move to the end) before tries are built, then the levels are
// classified. Both WCOJ engines plan through here, so Generic-Join and
// LFTJ agree on orders and classifications.
func AggPlan(q *Query, policy OrderPolicy, spec agg.Spec) (*Plan, *agg.Classification, error) {
	return AggPlanIn(nil, q, policy, spec)
}

// AggPlanIn is AggPlanSrc over a concrete store (nil selects the
// process-global one).
func AggPlanIn(store *TrieStore, q *Query, policy OrderPolicy, spec agg.Spec) (*Plan, *agg.Classification, error) {
	if store == nil {
		store = DefaultTrieStore()
	}
	return AggPlanSrc(store, q, policy, spec)
}

// AggPlanSrc is AggPlan with tries served from the given source;
// long-lived DBs plan through here (with their versioned source, so
// aggregate plans read the same base ⊎ delta snapshot views as the
// enumeration plans).
func AggPlanSrc(store TrieSource, q *Query, policy OrderPolicy, spec agg.Spec) (*Plan, *agg.Classification, error) {
	if policy == nil {
		policy = HeuristicOrder()
	}
	sunk := OrderFunc(func(q *Query) ([]string, error) {
		order, err := policy.ResolveOrder(q)
		if err != nil {
			return nil, err
		}
		return agg.Sink(order, atomVarLists(q), spec), nil
	})
	p, err := BuildPlanSrc(store, q, sunk)
	if err != nil {
		return nil, nil, err
	}
	cls, err := agg.Classify(p.Order, atomVarLists(q), spec)
	if err != nil {
		return nil, nil, err
	}
	return p, cls, nil
}

// aggPlan resolves the options into a sunk, classified plan (Policy
// wins over Order, as in plan).
func (o GenericJoinOptions) aggPlan(q *Query, spec agg.Spec) (*Plan, *agg.Classification, error) {
	policy := o.Policy
	if policy == nil && o.Order != nil {
		policy = ExplicitOrder(o.Order)
	}
	return AggPlanIn(o.Store, q, policy, spec)
}

// GenericJoinAgg evaluates an aggregate with Generic-Join search.
// ModeCount returns the result cardinality — full multiplicity with a
// nil spec.Project, distinct projected tuples otherwise. ModeExists
// returns 1 or 0, short-circuiting on the first witness. Counts are
// identical to enumerate-then-aggregate at every Parallelism setting.
func GenericJoinAgg(q *Query, opts GenericJoinOptions, spec agg.Spec) (int64, *Stats, error) {
	p, cls, err := opts.aggPlan(q, spec)
	if err != nil {
		return 0, nil, err
	}
	return GenericJoinAggPlan(opts.Ctx, p, cls, opts.Parallelism)
}

// GenericJoinAggPlan is GenericJoinAgg over a prebuilt sunk plan and
// classification — the re-execution path of prepared aggregate
// queries, with context cancellation. The spec is the one the plan was
// classified for (cls.Spec).
func GenericJoinAggPlan(ctx context.Context, p *Plan, cls *agg.Classification, parallelism int) (int64, *Stats, error) {
	stats := &Stats{}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	switch cls.Spec.Mode {
	case agg.ModeCount:
		if len(cls.Spec.Project) > 0 {
			// Distinct projected count: the projected enumeration with a
			// counting sink.
			var n int64
			err := gjProjectVisit(ctx, p, cls, parallelism, stats, func(relation.Tuple) error {
				n++
				return nil
			})
			if err != nil {
				return 0, nil, err
			}
			stats.Output = int(n)
			return n, stats, nil
		}
		n, err := gjCountFast(ctx, p, cls, parallelism, stats)
		if err != nil {
			return 0, nil, err
		}
		stats.Output = int(n)
		return n, stats, nil
	case agg.ModeExists:
		found, err := gjExists(ctx, p, cls, parallelism, stats)
		if err != nil {
			return 0, nil, err
		}
		if found {
			stats.Output = 1
			return 1, stats, nil
		}
		return 0, stats, nil
	}
	return 0, nil, fmt.Errorf("core: unsupported aggregate mode %v", cls.Spec.Mode)
}

// GenericJoinProjectVisit streams the distinct projected tuples of the
// query to emit, in the lexicographic order of the sunk variable-order
// prefix. The Tuple passed to emit is reused between calls; emit must
// copy it to retain it. Projected-away levels are existence-checked
// per prefix (short-circuiting on the first witness) rather than
// enumerated, so a prefix with a million extensions costs the same as
// one with a single extension.
func GenericJoinProjectVisit(q *Query, opts GenericJoinOptions, project []string, stats *Stats, emit func(relation.Tuple) error) error {
	p, cls, err := opts.aggPlan(q, agg.Spec{Mode: agg.ModeEnumerate, Project: project})
	if err != nil {
		return err
	}
	return gjProjectVisit(opts.Ctx, p, cls, opts.Parallelism, stats, emit)
}

// GenericJoinProjectVisitPlan is GenericJoinProjectVisit over a
// prebuilt sunk plan and enumerate-mode classification, with context
// cancellation.
func GenericJoinProjectVisitPlan(ctx context.Context, p *Plan, cls *agg.Classification, parallelism int, stats *Stats, emit func(relation.Tuple) error) error {
	return gjProjectVisit(ctx, p, cls, parallelism, stats, emit)
}

// gjCountFast runs the counting search, sharding the depth-0
// intersection when parallelism is requested and the query is not
// already a pure product (CountFrom == 0 answers in O(#atoms)).
func gjCountFast(ctx context.Context, p *Plan, cls *agg.Classification, parallelism int, stats *Stats) (int64, error) {
	if parallelism <= 1 || len(p.Order) == 0 || cls.CountFrom == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		a := newGJAggWorker(p, cls, stats, nil)
		a.stop = &stop
		a.budget = BudgetFrom(ctx)
		n := a.count(0)
		if a.aborted {
			if a.budgetHit {
				return 0, ErrNodeBudget
			}
			return 0, CtxAbortErr(ctx, ErrAborted)
		}
		if a.overflow {
			return 0, agg.ErrCountOverflow
		}
		return n, nil
	}
	vals, starts := p.TopMorsels(parallelism)
	stats.Recursions++
	stats.IntersectValues += len(vals)
	budget := BudgetFrom(ctx)
	total, err := RunShardedSum(ctx, vals, starts, parallelism, stats, func(chunk []relation.Value, st *Stats, stop *atomic.Bool) (int64, error) {
		if !budget.Spend(int64(len(chunk))) {
			return 0, ErrNodeBudget
		}
		a := newGJAggWorker(p, cls, st, nil)
		a.stop = stop
		a.budget = budget
		n := a.countChunk(chunk)
		if a.aborted {
			if a.budgetHit {
				return 0, ErrNodeBudget
			}
			return 0, ErrAborted
		}
		if a.overflow {
			return 0, agg.ErrCountOverflow
		}
		return n, nil
	})
	if err == nil && total < 0 { // cross-chunk summation wrapped
		err = agg.ErrCountOverflow
	}
	if err != nil {
		return 0, err
	}
	return total, nil
}

// gjExists runs the existence search; shards poll a shared stop flag
// so the whole fleet unwinds once any worker finds a witness.
func gjExists(ctx context.Context, p *Plan, cls *agg.Classification, parallelism int, stats *Stats) (bool, error) {
	if parallelism <= 1 || len(p.Order) == 0 || cls.CountFrom == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		a := newGJAggWorker(p, cls, stats, nil)
		a.stop = &stop
		a.budget = BudgetFrom(ctx)
		found := a.exists(0)
		if !found {
			if a.budgetHit {
				return false, ErrNodeBudget
			}
			// The stop flag is only set by cancellation here, so a false
			// under a cancelled context is inconclusive, not a "no".
			if err := CtxErr(ctx); err != nil {
				return false, err
			}
		}
		return found, nil
	}
	vals, starts := p.TopMorsels(parallelism)
	stats.Recursions++
	stats.IntersectValues += len(vals)
	budget := BudgetFrom(ctx)
	return RunShardedAny(ctx, vals, starts, parallelism, stats, func(chunk []relation.Value, st *Stats, stop *atomic.Bool) (bool, error) {
		if !budget.Spend(int64(len(chunk))) {
			return false, ErrNodeBudget
		}
		a := newGJAggWorker(p, cls, st, nil)
		a.stop = stop
		a.budget = budget
		found := a.existsChunk(chunk)
		if !found && a.budgetHit {
			return false, ErrNodeBudget
		}
		return found, nil
	})
}

// gjProjectVisit runs the projected enumeration, replaying sharded
// chunks in deterministic order exactly like the full-tuple engine.
func gjProjectVisit(ctx context.Context, p *Plan, cls *agg.Classification, parallelism int, stats *Stats, emit func(relation.Tuple) error) error {
	if parallelism <= 1 || len(p.Order) == 0 || cls.EnumEnd == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		a := newGJAggWorker(p, cls, stats, emit)
		a.stop = &stop
		a.budget = BudgetFrom(ctx)
		err := a.visit(0)
		if err == nil {
			// Budget exhaustion inside the inner existence checks has no
			// error path: prefixes were silently skipped, so a nil
			// completion with the flag set is incomplete, not success.
			if a.budgetHit {
				return ErrNodeBudget
			}
			// A cancellation landing between polls makes the inner
			// existence checks return false, silently skipping prefixes;
			// a nil completion under a cancelled ctx is therefore
			// inconclusive, never a complete answer.
			return CtxErr(ctx)
		}
		return CtxAbortErr(ctx, err)
	}
	vals, starts := p.TopMorsels(parallelism)
	stats.Recursions++
	stats.IntersectValues += len(vals)
	budget := BudgetFrom(ctx)
	return RunShardedTop(ctx, vals, starts, parallelism, len(cls.Spec.Project), stats, emit,
		func(chunk []relation.Value, st *Stats, stop *atomic.Bool, chunkEmit func(relation.Tuple) error) error {
			if !budget.Spend(int64(len(chunk))) {
				return ErrNodeBudget
			}
			a := newGJAggWorker(p, cls, st, chunkEmit)
			a.stop = stop
			a.budget = budget
			err := a.visitChunk(chunk)
			if err == nil && a.budgetHit {
				return ErrNodeBudget
			}
			return err
		})
}

// gjAggWorker is the per-goroutine state of an aggregate-aware search:
// the plain worker's range stacks and scratch plus the classification,
// the subtree memo and the projection buffer. Like the plain worker it
// shares only the immutable Plan (and Classification) with siblings.
type gjAggWorker struct {
	w    *gjWorker
	cls  *agg.Classification
	memo *agg.Memo
	// stop, when non-nil, is polled by every search mode: sharded
	// EXISTS short-circuits across workers through it, and a cancelled
	// or aborted run unwinds at the next poll.
	stop *atomic.Bool
	// budget, when non-nil, is drawn down at the stop-poll stride; all
	// workers of a run share one budget.
	budget *NodeBudget
	// aborted records that a stop-flag poll fired inside a counting
	// search (which has no error path); the entry points translate it.
	// budgetHit qualifies the abort: the run died of budget exhaustion,
	// not cancellation, and must surface ErrNodeBudget.
	aborted   bool
	budgetHit bool
	// overflow records that a count exceeded int64 somewhere below;
	// set by product, checked by the counting entry points.
	overflow bool
	// projPos[i] is the binding position of cls.Spec.Project[i];
	// projBuf is the reused emit tuple.
	projPos []int
	projBuf relation.Tuple
	// keyRanges is the scratch the memo key is built from.
	keyRanges []int
}

func newGJAggWorker(p *Plan, cls *agg.Classification, stats *Stats, emit func(relation.Tuple) error) *gjAggWorker {
	a := &gjAggWorker{
		w:    newGJWorker(p, stats, emit),
		cls:  cls,
		memo: agg.NewMemo(),
	}
	if len(cls.Spec.Project) > 0 {
		a.projPos = make([]int, len(cls.Spec.Project))
		a.projBuf = make(relation.Tuple, len(cls.Spec.Project))
		for i, v := range cls.Spec.Project {
			for j, qv := range p.Q.Vars {
				if qv == v {
					a.projPos[i] = j
				}
			}
		}
	}
	return a
}

// levelRanges assembles the participating level ranges at depth d into
// the worker's scratch.
//
//wcojlint:retains w.ranges is scratch consumed by the caller's intersection, under one pinned snapshot
func (a *gjAggWorker) levelRanges(d int) []trie.LevelRange {
	w := a.w
	w.ranges = w.ranges[:0]
	for _, ai := range w.plan.Participants[d] {
		ga := w.atoms[ai]
		l := ga.levelOf[d]
		w.ranges = append(w.ranges, ga.trie.SegLevel(l, ga.segLo[l], ga.segHi[l]))
	}
	return w.ranges
}

// intersect computes the depth-d level intersection (the rec body of
// the plain engine).
func (a *gjAggWorker) intersect(d int) []relation.Value {
	w := a.w
	vals := trie.IntersectLevels(w.scratch[d][:0], a.levelRanges(d))
	w.scratch[d] = vals
	w.stats.IntersectValues += len(vals)
	return vals
}

// narrow binds v at depth d on every participating atom. v comes from
// the level intersection, so narrowing cannot fail; the guard mirrors
// the plain engine's.
func (a *gjAggWorker) narrow(d int, v relation.Value) bool {
	for _, ai := range a.w.plan.Participants[d] {
		ga := a.w.atoms[ai]
		if !ga.bind(ga.levelOf[d], v) {
			return false
		}
	}
	return true
}

// product multiplies the active atoms' current row-range sizes — the
// number of suffix extensions below depth d when every remaining level
// is free-counted. Overflow marks the worker instead of wrapping; the
// entry points turn the mark into agg.ErrCountOverflow.
func (a *gjAggWorker) product(d int) int64 {
	prod := int64(1)
	for j, ai := range a.cls.ActiveAtoms[d] {
		ga := a.w.atoms[ai]
		lo, hi := ga.rows(a.cls.BoundLevel[d][j])
		var ok bool
		prod, ok = agg.Mul(prod, int64(hi-lo))
		if !ok {
			a.overflow = true
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
func (a *gjAggWorker) productNonEmpty(d int) bool {
	for j, ai := range a.cls.ActiveAtoms[d] {
		ga := a.w.atoms[ai]
		lo, hi := ga.rows(a.cls.BoundLevel[d][j])
		if hi <= lo {
			return false
		}
	}
	return true
}

// memoKey builds the subtree signature at depth d: the (lo,hi) range
// of every active atom. Identical signatures have identical subtree
// results regardless of the prefix that produced them.
func (a *gjAggWorker) memoKey(d int) []byte {
	a.keyRanges = a.keyRanges[:0]
	for j, ai := range a.cls.ActiveAtoms[d] {
		ga := a.w.atoms[ai]
		lo, hi := ga.rows(a.cls.BoundLevel[d][j])
		a.keyRanges = append(a.keyRanges, lo, hi)
	}
	return a.memo.Key(d, a.keyRanges)
}

// count returns the number of full result tuples below the current
// prefix at depth d.
func (a *gjAggWorker) count(d int) int64 {
	w := a.w
	w.stats.Recursions++
	if a.aborted {
		return 0
	}
	if w.stats.Recursions&255 == 0 {
		if a.stop != nil && a.stop.Load() {
			a.aborted = true
			return 0
		}
		if !a.budget.Spend(256) {
			a.aborted, a.budgetHit = true, true
			return 0
		}
	}
	n := len(w.plan.Order)
	if d == n {
		return 1
	}
	if d >= a.cls.CountFrom {
		w.stats.AggMultiplies++
		return a.product(d)
	}
	useMemo := a.cls.MemoDepths[d] && a.memo.Enabled()
	if useMemo {
		if v, ok := a.memo.Get(a.memoKey(d)); ok {
			w.stats.AggMemoHits++
			return v
		}
	}
	var total int64
	if d == n-1 {
		// Tail shortcut: each intersection value is one result, so only
		// the cardinality is computed — nothing is materialized.
		w.stats.AggMultiplies++
		c := trie.IntersectLevelsCount(a.levelRanges(d))
		w.stats.IntersectValues += c
		total = int64(c)
	} else {
		vals := a.intersect(d)
		a.w.arm(d)
		for _, v := range vals {
			if !a.narrow(d, v) {
				continue
			}
			total += a.count(d + 1)
			if total < 0 { // summation wrapped
				a.overflow = true
				total = 0
			}
		}
	}
	if useMemo && !a.overflow {
		// The memo's key scratch was clobbered by deeper probes;
		// rebuild it (the ranges at this depth are unchanged).
		a.memo.Put(a.memoKey(d), total)
	}
	return total
}

// exists reports whether any result tuple extends the current prefix,
// short-circuiting on the first witness.
func (a *gjAggWorker) exists(d int) bool {
	w := a.w
	if a.aborted || (a.stop != nil && a.stop.Load()) {
		return false
	}
	w.stats.Recursions++
	if w.stats.Recursions&255 == 0 && !a.budget.Spend(256) {
		// No error path here either: flag the exhaustion and unwind
		// with inconclusive falses; the entry points translate.
		a.aborted, a.budgetHit = true, true
		return false
	}
	n := len(w.plan.Order)
	if d == n {
		return true
	}
	if d >= a.cls.CountFrom {
		w.stats.AggMultiplies++
		return a.productNonEmpty(d)
	}
	useMemo := a.cls.MemoDepths[d] && a.memo.Enabled()
	if useMemo {
		if v, ok := a.memo.Get(a.memoKey(d)); ok {
			w.stats.AggMemoHits++
			return v != 0
		}
	}
	found := false
	if d == n-1 {
		w.stats.AggMultiplies++
		found = trie.IntersectLevelsAny(a.levelRanges(d))
		if found {
			w.stats.IntersectValues++
		}
	} else {
		vals := a.intersect(d)
		a.w.arm(d)
		for _, v := range vals {
			if a.stop != nil && a.stop.Load() {
				return false
			}
			if !a.narrow(d, v) {
				continue
			}
			if a.exists(d + 1) {
				found = true
				break
			}
		}
	}
	if useMemo && !a.aborted && (a.stop == nil || !a.stop.Load()) {
		a.memo.Put(a.memoKey(d), boolToInt64(found))
	}
	return found
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// visit enumerates the projected prefix, emitting one tuple per prefix
// that has at least one extension.
func (a *gjAggWorker) visit(d int) error {
	w := a.w
	if w.stats.Recursions&255 == 0 {
		if a.stop != nil && a.stop.Load() {
			return ErrAborted
		}
		if !a.budget.Spend(256) {
			return ErrNodeBudget
		}
	}
	if d == a.cls.EnumEnd {
		if a.exists(d) {
			for i, p := range a.projPos {
				a.projBuf[i] = w.binding[p]
			}
			return w.emit(a.projBuf)
		}
		return nil
	}
	w.stats.Recursions++
	vals := a.intersect(d)
	a.w.arm(d)
	for _, v := range vals {
		w.binding[w.plan.OutPos[d]] = v
		if !a.narrow(d, v) {
			continue
		}
		if err := a.visit(d + 1); err != nil {
			return err
		}
	}
	return nil
}

// countChunk, existsChunk and visitChunk run the depth-0 per-value
// loop over one shard of the precomputed top-level intersection.
func (a *gjAggWorker) countChunk(vals []relation.Value) int64 {
	a.w.arm(0)
	var total int64
	for _, v := range vals {
		if !a.narrow(0, v) {
			continue
		}
		total += a.count(1)
		if total < 0 { // summation wrapped
			a.overflow = true
			total = 0
		}
	}
	return total
}

func (a *gjAggWorker) existsChunk(vals []relation.Value) bool {
	a.w.arm(0)
	for _, v := range vals {
		if a.stop != nil && a.stop.Load() {
			return false
		}
		if !a.narrow(0, v) {
			continue
		}
		if a.exists(1) {
			return true
		}
	}
	return false
}

func (a *gjAggWorker) visitChunk(vals []relation.Value) error {
	w := a.w
	w.arm(0)
	for _, v := range vals {
		w.binding[w.plan.OutPos[0]] = v
		if !a.narrow(0, v) {
			continue
		}
		if err := a.visit(1); err != nil {
			return err
		}
	}
	return nil
}
