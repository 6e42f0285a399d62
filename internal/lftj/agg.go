package lftj

// Aggregate-aware Leapfrog Triejoin: the iterator-based twin of
// core's aggregate Generic-Join. The same agg.Classification drives
// both engines — free-counted suffix levels multiply the active
// atoms' current row-range sizes instead of opening iterators, the
// deepest level of a counting or existence run hands the iterators'
// child ranges to the trie's intersection kernels instead of walking
// them, bound levels consult the per-(trie,prefix) memo, and
// EXISTS short-circuits on the first witness (across shards via a
// shared stop flag). Counts are byte-identical to
// enumerate-then-aggregate at every parallelism setting.

import (
	"context"
	"fmt"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/core"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// aggPlan resolves the options into a sunk, classified plan shared
// with core.AggPlan (Policy wins over Order, as in plan).
func (o Options) aggPlan(q *core.Query, spec agg.Spec) (*core.Plan, *agg.Classification, error) {
	policy := o.Policy
	if policy == nil && o.Order != nil {
		policy = core.ExplicitOrder(o.Order)
	}
	return core.AggPlanIn(o.Store, q, policy, spec)
}

// Agg evaluates an aggregate with leapfrog search. ModeCount returns
// the result cardinality — full multiplicity with a nil spec.Project,
// distinct projected tuples otherwise. ModeExists returns 1 or 0,
// short-circuiting on the first witness.
func Agg(q *core.Query, opts Options, spec agg.Spec) (int64, *core.Stats, error) {
	p, cls, err := opts.aggPlan(q, spec)
	if err != nil {
		return 0, nil, err
	}
	return AggPlan(opts.Ctx, p, cls, opts.Parallelism)
}

// AggPlan is Agg over a prebuilt sunk plan and classification — the
// re-execution path of prepared aggregate queries, with context
// cancellation. The spec is the one the plan was classified for
// (cls.Spec).
func AggPlan(ctx context.Context, p *core.Plan, cls *agg.Classification, parallelism int) (int64, *core.Stats, error) {
	stats := &core.Stats{}
	if err := core.CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	switch cls.Spec.Mode {
	case agg.ModeCount:
		if len(cls.Spec.Project) > 0 {
			var n int64
			err := projectVisit(ctx, p, cls, parallelism, stats, func(relation.Tuple) error {
				n++
				return nil
			})
			if err != nil {
				return 0, nil, err
			}
			stats.Output = int(n)
			return n, stats, nil
		}
		n, err := countFast(ctx, p, cls, parallelism, stats)
		if err != nil {
			return 0, nil, err
		}
		stats.Output = int(n)
		return n, stats, nil
	case agg.ModeExists:
		found, err := existsFast(ctx, p, cls, parallelism, stats)
		if err != nil {
			return 0, nil, err
		}
		if found {
			stats.Output = 1
			return 1, stats, nil
		}
		return 0, stats, nil
	}
	return 0, nil, fmt.Errorf("lftj: unsupported aggregate mode %v", cls.Spec.Mode)
}

// ProjectVisit streams the distinct projected tuples of the query to
// emit, in the lexicographic order of the sunk variable-order prefix.
// The Tuple passed to emit is reused between calls; emit must copy it
// to retain it.
func ProjectVisit(q *core.Query, opts Options, project []string, stats *core.Stats, emit func(relation.Tuple) error) error {
	p, cls, err := opts.aggPlan(q, agg.Spec{Mode: agg.ModeEnumerate, Project: project})
	if err != nil {
		return err
	}
	return projectVisit(opts.Ctx, p, cls, opts.Parallelism, stats, emit)
}

// ProjectVisitPlan is ProjectVisit over a prebuilt sunk plan and
// enumerate-mode classification, with context cancellation.
func ProjectVisitPlan(ctx context.Context, p *core.Plan, cls *agg.Classification, parallelism int, stats *core.Stats, emit func(relation.Tuple) error) error {
	return projectVisit(ctx, p, cls, parallelism, stats, emit)
}

func countFast(ctx context.Context, p *core.Plan, cls *agg.Classification, parallelism int, stats *core.Stats) (int64, error) {
	if parallelism <= 1 || len(p.Order) == 0 || cls.CountFrom == 0 {
		var stop atomic.Bool
		defer core.WatchCancel(ctx, &stop)()
		a := newAggWorker(p, cls, stats, nil)
		a.stop = &stop
		a.budget = core.BudgetFrom(ctx)
		n := a.count(0)
		if a.aborted {
			if a.budgetHit {
				return 0, core.ErrNodeBudget
			}
			return 0, core.CtxAbortErr(ctx, core.ErrAborted)
		}
		if a.overflow {
			return 0, agg.ErrCountOverflow
		}
		return n, nil
	}
	vals, starts := p.TopMorsels(parallelism)
	stats.Recursions++
	budget := core.BudgetFrom(ctx)
	total, err := core.RunShardedSum(ctx, vals, starts, parallelism, stats, func(chunk []relation.Value, st *core.Stats, stop *atomic.Bool) (int64, error) {
		if !budget.Spend(int64(len(chunk))) {
			return 0, core.ErrNodeBudget
		}
		a := newAggWorker(p, cls, st, nil)
		a.stop = stop
		a.budget = budget
		n := a.countChunk(chunk)
		if a.aborted {
			if a.budgetHit {
				return 0, core.ErrNodeBudget
			}
			return 0, core.ErrAborted
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

func existsFast(ctx context.Context, p *core.Plan, cls *agg.Classification, parallelism int, stats *core.Stats) (bool, error) {
	if parallelism <= 1 || len(p.Order) == 0 || cls.CountFrom == 0 {
		var stop atomic.Bool
		defer core.WatchCancel(ctx, &stop)()
		a := newAggWorker(p, cls, stats, nil)
		a.stop = &stop
		a.budget = core.BudgetFrom(ctx)
		found := a.exists(0)
		if !found {
			if a.budgetHit {
				return false, core.ErrNodeBudget
			}
			// The stop flag is only set by cancellation here, so a false
			// under a cancelled context is inconclusive, not a "no".
			if err := core.CtxErr(ctx); err != nil {
				return false, err
			}
		}
		return found, nil
	}
	vals, starts := p.TopMorsels(parallelism)
	stats.Recursions++
	budget := core.BudgetFrom(ctx)
	return core.RunShardedAny(ctx, vals, starts, parallelism, stats, func(chunk []relation.Value, st *core.Stats, stop *atomic.Bool) (bool, error) {
		if !budget.Spend(int64(len(chunk))) {
			return false, core.ErrNodeBudget
		}
		a := newAggWorker(p, cls, st, nil)
		a.stop = stop
		a.budget = budget
		found := a.existsChunk(chunk)
		if !found && a.budgetHit {
			return false, core.ErrNodeBudget
		}
		return found, nil
	})
}

func projectVisit(ctx context.Context, p *core.Plan, cls *agg.Classification, parallelism int, stats *core.Stats, emit func(relation.Tuple) error) error {
	if parallelism <= 1 || len(p.Order) == 0 || cls.EnumEnd == 0 {
		var stop atomic.Bool
		defer core.WatchCancel(ctx, &stop)()
		a := newAggWorker(p, cls, stats, emit)
		a.stop = &stop
		a.budget = core.BudgetFrom(ctx)
		err := a.visit(0)
		if err == nil {
			// Budget exhaustion inside the inner existence checks has no
			// error path: prefixes were silently skipped, so a nil
			// completion with the flag set is incomplete, not success.
			if a.budgetHit {
				return core.ErrNodeBudget
			}
			// See the Generic-Join twin: a nil completion under a
			// cancelled ctx may have skipped prefixes via the suppressed
			// existence checks — report the cancellation, not success.
			return core.CtxErr(ctx)
		}
		return core.CtxAbortErr(ctx, err)
	}
	vals, starts := p.TopMorsels(parallelism)
	stats.Recursions++
	budget := core.BudgetFrom(ctx)
	return core.RunShardedTop(ctx, vals, starts, parallelism, len(cls.Spec.Project), stats, emit,
		func(chunk []relation.Value, st *core.Stats, stop *atomic.Bool, chunkEmit func(relation.Tuple) error) error {
			if !budget.Spend(int64(len(chunk))) {
				return core.ErrNodeBudget
			}
			a := newAggWorker(p, cls, st, chunkEmit)
			a.stop = stop
			a.budget = budget
			err := a.visitChunk(chunk)
			if err == nil && a.budgetHit {
				return core.ErrNodeBudget
			}
			return err
		})
}

// aggWorker is the per-goroutine state of an aggregate-aware leapfrog
// search: the plain worker's iterators plus the classification, the
// subtree memo and the projection buffer.
type aggWorker struct {
	w    *worker
	cls  *agg.Classification
	memo *agg.Memo
	// stop, when non-nil, is polled by every search mode: sharded
	// EXISTS short-circuits across workers through it, and a cancelled
	// or aborted run unwinds at the next poll.
	stop *atomic.Bool
	// budget, when non-nil, is drawn down at the stop-poll stride; all
	// workers of a run share one budget.
	budget    *core.NodeBudget
	projPos   []int
	projBuf   relation.Tuple
	keyRanges []int
	// ranges is the scratch the kernel tails' level ranges are built
	// in; tailDebt holds tail matches not yet charged to the budget.
	ranges   []trie.LevelRange
	tailDebt int64
	// aborted records that a stop-flag poll fired inside a counting
	// search (which has no error path); the entry points translate it.
	// budgetHit qualifies the abort: the run died of budget exhaustion,
	// not cancellation, and must surface core.ErrNodeBudget.
	aborted   bool
	budgetHit bool
	// overflow records that a count exceeded int64 somewhere below;
	// set by product, checked by the counting entry points.
	overflow bool
}

func newAggWorker(p *core.Plan, cls *agg.Classification, stats *core.Stats, emit func(relation.Tuple) error) *aggWorker {
	a := &aggWorker{
		w:    newWorker(p, stats, emit),
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

// rangeOf returns atom ai's current row range given its bound level:
// an atom with no variable bound yet spans its whole trie; otherwise
// the segment of its deepest matched value, read through RangeAt so a
// leapfrog loop mid-flight below that level cannot disturb it.
func (a *aggWorker) rangeOf(ai, boundLevel int) (int, int) {
	if boundLevel == 0 {
		return 0, a.w.plan.Tries[ai].Len()
	}
	return a.w.atoms[ai].it.RangeAt(boundLevel - 1)
}

// product multiplies the active atoms' current row-range sizes — the
// number of suffix extensions below depth d when every remaining level
// is free-counted. Overflow marks the worker instead of wrapping; the
// entry points turn the mark into agg.ErrCountOverflow.
func (a *aggWorker) product(d int) int64 {
	prod := int64(1)
	for j, ai := range a.cls.ActiveAtoms[d] {
		lo, hi := a.rangeOf(ai, a.cls.BoundLevel[d][j])
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
func (a *aggWorker) productNonEmpty(d int) bool {
	for j, ai := range a.cls.ActiveAtoms[d] {
		lo, hi := a.rangeOf(ai, a.cls.BoundLevel[d][j])
		if hi <= lo {
			return false
		}
	}
	return true
}

// memoKey builds the subtree signature at depth d from the active
// atoms' current ranges.
func (a *aggWorker) memoKey(d int) []byte {
	a.keyRanges = a.keyRanges[:0]
	for j, ai := range a.cls.ActiveAtoms[d] {
		lo, hi := a.rangeOf(ai, a.cls.BoundLevel[d][j])
		a.keyRanges = append(a.keyRanges, lo, hi)
	}
	return a.memo.Key(d, a.keyRanges)
}

// count returns the number of full result tuples below the current
// prefix at depth d (all iterators positioned on the levels above d).
func (a *aggWorker) count(d int) int64 {
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
		// Tail shortcut: each match is one result, so the kernel counts
		// the participants' child ranges without walking them.
		w.stats.AggMultiplies++
		c := trie.IntersectLevelsCount(a.levelRanges(d))
		w.stats.IntersectValues += c
		if !a.tailPoll(c) {
			return 0
		}
		total = int64(c)
	} else {
		a.leapfrog(d, func() bool {
			total += a.count(d + 1)
			if total < 0 { // summation wrapped
				a.overflow = true
				total = 0
			}
			return true
		})
	}
	if useMemo && !a.overflow {
		a.memo.Put(a.memoKey(d), total)
	}
	return total
}

// exists reports whether any result tuple extends the current prefix,
// short-circuiting on the first witness.
func (a *aggWorker) exists(d int) bool {
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
		c := 0
		if found {
			c = 1
			w.stats.IntersectValues++
		}
		if !a.tailPoll(c) {
			return false
		}
	} else {
		a.leapfrog(d, func() bool {
			if a.stop != nil && a.stop.Load() {
				return false
			}
			if a.exists(d + 1) {
				found = true
				return false
			}
			return true
		})
	}
	if useMemo && !a.aborted && (a.stop == nil || !a.stop.Load()) {
		var v int64
		if found {
			v = 1
		}
		a.memo.Put(a.memoKey(d), v)
	}
	return found
}

// levelRanges assembles the depth-d participants' child ranges — the
// level each iterator would open next — into the worker's scratch.
//
//wcojlint:retains a.ranges is scratch consumed by the caller's tail intersection, under one pinned snapshot
func (a *aggWorker) levelRanges(d int) []trie.LevelRange {
	a.ranges = a.ranges[:0]
	for _, st := range a.w.participants[d] {
		a.ranges = append(a.ranges, st.it.ChildLevel())
	}
	return a.ranges
}

// tailPoll polls the stop flag after a kernel tail and charges its c
// matches to the budget: the kernels have no poll sites, and a tail
// under a single recursion can hold most of a run's work. Charges
// collect in tailDebt and are drawn in strides of 256, so small tails
// cost no atomic add apiece. It reports whether the search may go on.
func (a *aggWorker) tailPoll(c int) bool {
	if a.stop != nil && a.stop.Load() {
		a.aborted = true
		return false
	}
	if a.tailDebt += int64(c); a.tailDebt >= 256 {
		if !a.budget.Spend(a.tailDebt) {
			a.aborted, a.budgetHit = true, true
			return false
		}
		a.tailDebt = 0
	}
	return true
}

// visit enumerates the projected prefix, emitting one tuple per prefix
// that has at least one extension.
func (a *aggWorker) visit(d int) error {
	w := a.w
	if w.stats.Recursions&255 == 0 {
		if a.stop != nil && a.stop.Load() {
			return core.ErrAborted
		}
		if !a.budget.Spend(256) {
			return core.ErrNodeBudget
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
	var visitErr error
	a.leapfrog(d, func() bool {
		w.binding[w.plan.OutPos[d]] = a.w.participants[d][0].it.Key()
		if err := a.visit(d + 1); err != nil {
			visitErr = err
			return false
		}
		return true
	})
	return visitErr
}

// leapfrog runs the level-d leapfrog intersection, invoking match at
// every value all participating iterators agree on (each match also
// counts toward IntersectValues, mirroring the plain engine). match
// returns false to stop the loop early. Iterators are opened on entry
// and restored on exit, so callers can resume the parent level.
func (a *aggWorker) leapfrog(d int, match func() bool) {
	w := a.w
	iters := w.participants[d]
	for _, st := range iters {
		st.it.Open()
	}
	defer func() {
		for _, st := range iters {
			st.it.Up()
		}
	}()
	for _, st := range iters {
		if st.it.AtEnd() {
			return
		}
	}
	k := len(iters)
	sortByKey(iters)
	p := 0
	steps := 0
	for {
		// A level whose matches all have tiny subtrees (memo hits,
		// free-counted products) can walk an enormous intersection
		// with few recursions underneath to poll; poll here so
		// cancellation unwinds mid-level.
		if steps++; steps&255 == 0 {
			if a.stop != nil && a.stop.Load() {
				a.aborted = true
				return
			}
			if !a.budget.Spend(256) {
				a.aborted, a.budgetHit = true, true
				return
			}
		}
		xmax := iters[(p+k-1)%k].it.Key()
		x := iters[p].it.Key()
		if x == xmax {
			w.stats.IntersectValues++
			if !match() {
				return
			}
			iters[p].it.Next()
			if iters[p].it.AtEnd() {
				return
			}
			p = (p + 1) % k
		} else {
			iters[p].it.Seek(xmax)
			if iters[p].it.AtEnd() {
				return
			}
			p = (p + 1) % k
		}
	}
}

// countChunk, existsChunk and visitChunk run the depth-0 per-value
// loop over one shard of the precomputed top-level intersection,
// mirroring the plain engine's iterateTop.
func (a *aggWorker) countChunk(vals []relation.Value) int64 {
	var total int64
	a.chunkEach(vals, func() bool {
		total += a.count(1)
		if total < 0 { // summation wrapped
			a.overflow = true
			total = 0
		}
		return true
	})
	return total
}

func (a *aggWorker) existsChunk(vals []relation.Value) bool {
	found := false
	a.chunkEach(vals, func() bool {
		if a.stop != nil && a.stop.Load() {
			return false
		}
		if a.exists(1) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (a *aggWorker) visitChunk(vals []relation.Value) error {
	var visitErr error
	a.chunkEach(vals, func() bool {
		if err := a.visit(1); err != nil {
			visitErr = err
			return false
		}
		return true
	})
	return visitErr
}

// chunkEach seeks each top-level value of one chunk on this worker's
// depth-0 iterators and invokes body with the value bound; every v
// comes from the full depth-0 intersection, so each participating
// iterator seeks directly to it. body returns false to stop early.
func (a *aggWorker) chunkEach(vals []relation.Value, body func() bool) {
	w := a.w
	iters := w.participants[0]
	for i, v := range vals {
		// The per-value bodies poll on their own recursion cadence,
		// but a chunk of values whose subtrees are all tiny would
		// otherwise only poll every 256 recursions; poll per 256
		// top-level values too so abort latency is bounded both ways.
		if i&255 == 255 {
			if a.stop != nil && a.stop.Load() {
				a.aborted = true
				return
			}
			if !a.budget.Spend(256) {
				a.aborted, a.budgetHit = true, true
				return
			}
		}
		ok := true
		for _, st := range iters {
			st.it.Open()
			st.it.Seek(v)
			if st.it.AtEnd() || st.it.Key() != v {
				ok = false // cannot happen: v came from the intersection
				break
			}
		}
		cont := true
		if ok {
			w.stats.IntersectValues++
			w.binding[w.plan.OutPos[0]] = v
			cont = body()
		}
		for _, st := range iters {
			if st.it.Depth() == 0 {
				st.it.Up()
			}
		}
		if !cont {
			return
		}
	}
}
