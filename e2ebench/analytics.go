package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wcoj"
	"wcoj/internal/dataset"
)

// analyticsQuery is one prepared aggregate the analytics client cycles
// through, run on both engines.
type analyticsQuery struct {
	name    string
	src     string
	project []string
	exists  bool
}

const (
	triangleE = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)."
	clique4E  = "Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)."
	path3E    = "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)."
	agmRST    = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)."
)

var analyticsQueries = []analyticsQuery{
	{name: "triangle", src: triangleE},
	{name: "clique4", src: clique4E},
	{name: "path3", src: path3E},
	{name: "triangle_by_a", src: triangleE, project: []string{"A"}},
	{name: "triangle_exists", src: triangleE, exists: true},
	{name: "agm_triangle", src: agmRST},
}

var engines = []wcoj.Algorithm{wcoj.AlgoGenericJoin, wcoj.AlgoLeapfrog}

// engineLayer names the layer that does a warm prepared query's work.
func engineLayer(a wcoj.Algorithm) string {
	if a == wcoj.AlgoLeapfrog {
		return "lftj.search"
	}
	return "core.search"
}

type analyticsOp struct {
	q    analyticsQuery
	algo wcoj.Algorithm
	pq   *wcoj.PreparedQuery
	want int
}

func (op *analyticsOp) run(ctx context.Context) (int, *wcoj.Stats, error) {
	if op.q.exists {
		ok, st, err := op.pq.Exists(ctx)
		if ok {
			return 1, st, err
		}
		return 0, st, err
	}
	return op.pq.Count(ctx)
}

func analyticsRelations(seed int64) []*wcoj.Relation {
	tri := dataset.TriangleAGMTight(agmTriangleN)
	return []*wcoj.Relation{powerLawE(seed), tri.R, tri.S, tri.T}
}

// setupAnalytics registers the relations, prepares every query on both
// engines at the given parallelism and runs each once.
func setupAnalytics(rels []*wcoj.Relation, parallelism int) ([]*analyticsOp, error) {
	db := wcoj.NewDB()
	if err := db.Register(rels...); err != nil {
		return nil, err
	}
	var ops []*analyticsOp
	for _, q := range analyticsQueries {
		for _, algo := range engines {
			pq, err := db.Prepare(q.src, wcoj.Options{Algorithm: algo, Project: q.project, Parallelism: parallelism})
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", q.name, err)
			}
			op := &analyticsOp{q: q, algo: algo, pq: pq}
			if op.want, _, err = op.run(context.Background()); err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// analyticsOracle computes every answer at p=1 on both engines, checks
// that they agree, and gives each engine's op the other engine's value.
func analyticsOracle(rels []*wcoj.Relation) ([]*analyticsOp, error) {
	ops, err := setupAnalytics(rels, 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(ops); i += 2 {
		gj, lf := ops[i], ops[i+1]
		if gj.want != lf.want {
			return nil, fmt.Errorf("%w: %s is %d on Generic-Join and %d on Leapfrog Triejoin at p=1", errWrong, gj.q.name, gj.want, lf.want)
		}
	}
	return ops, nil
}

// analyticsPhase is one closed-loop client running whole cycles over
// the prepared ops until d has passed. lat[i] holds op i's latencies.
type analyticsPhase struct {
	lat     [][]float64
	all     []float64
	elapsed time.Duration
	failed  int
}

func runAnalyticsPhase(ops []*analyticsOp, d time.Duration, tr *tracer, req *int64) (*analyticsPhase, error) {
	ctx := context.Background()
	ph := &analyticsPhase{lat: make([][]float64, len(ops))}
	start := time.Now()
	for time.Since(start) < d {
		for i, op := range ops {
			*req++
			root := tr.begin("bench.op", -1, *req)
			sp := tr.begin(engineLayer(op.algo), root, *req)
			t0 := time.Now()
			n, st, err := op.run(ctx)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.end(sp)
			tr.end(root)
			if err != nil {
				ph.failed++
				logf("analytics: %s: %v", op.q.name, err)
				continue
			}
			if n != op.want {
				return nil, fmt.Errorf("%w: %s on %v returned %d, want %d", errWrong, op.q.name, op.algo, n, op.want)
			}
			ph.lat[i] = append(ph.lat[i], ms)
			ph.all = append(ph.all, ms)
			tr.count("trie.intersect_values", float64(st.IntersectValues))
			tr.count("core.recursions", float64(st.Recursions))
			tr.count("core.agg_multiplies", float64(st.AggMultiplies))
			tr.count("core.memo_hits", float64(st.AggMemoHits))
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func runAnalytics(c config) (*outcome, error) {
	rels := analyticsRelations(c.seed)
	oracle, err := analyticsOracle(rels)
	if err != nil {
		return nil, err
	}
	var ops []*analyticsOp
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		if ops, err = setupAnalytics(rels, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	for i, op := range ops {
		op.want = oracle[i^1].want // the other engine's p=1 answer
	}

	o := &outcome{}
	var req int64
	untracedFor, tracedFor := splitPhase(c)
	ph, err := runAnalyticsPhase(ops, untracedFor, nil, &req)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = len(ph.all)+ph.failed, ph.failed
	if !c.trace {
		o.set("setup_s", "s", median(setups))
		o.setReads(ph.all, kindsP50(ph.lat), ph.elapsed, "analytics")
		o.set("success_rate", "fraction", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.set("peak_rss_mb", "MiB", rss)
		return o, nil
	}

	tr := newTracer()
	g0 := readGoCounters()
	tph, err := runAnalyticsPhase(ops, tracedFor, tr, &req)
	if err != nil {
		return nil, err
	}
	o.setGo(g0, readGoCounters(), len(tph.all))
	o.attempted += len(tph.all) + tph.failed
	o.failed += tph.failed
	o.overhead(kindsP50(ph.lat), kindsP50(tph.lat))

	n := float64(len(tph.all))
	o.set("core.search_ms", "ms", median(tr.durations("core.search")))
	o.set("lftj.search_ms", "ms", median(tr.durations("lftj.search")))
	o.set("trie.intersect_values_per_op", "count", tr.total("trie.intersect_values")/n)
	o.set("core.recursions_per_op", "count", tr.total("core.recursions")/n)
	o.set("core.agg_multiplies_per_op", "count", tr.total("core.agg_multiplies")/n)
	o.set("core.memo_hits_per_op", "count", tr.total("core.memo_hits")/n)
	var ratios []float64
	for i := 0; i < len(ops); i += 2 {
		ratios = append(ratios, ratio(median(tph.lat[i+1]), median(tph.lat[i])))
	}
	o.set("lftj.gj_ratio", "ratio", geomean(ratios))

	eff, err := parallelEfficiency(ops, oracle)
	if err != nil {
		return nil, err
	}
	o.set("core.parallel_efficiency", "ratio", eff)
	if err := probeStorage(o, c.workdir, rels); err != nil {
		return nil, err
	}
	return o, tr.write(c.tracePath)
}

// parallelEfficiency is the geometric mean over the ops of
// T(p=1) / (p·T(p)) at the default p = GOMAXPROCS, each time the median
// of a few alternating warm runs.
func parallelEfficiency(ops, serial []*analyticsOp) (float64, error) {
	const reps = 3
	p := float64(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	runMs := func(op *analyticsOp) (float64, error) {
		return timeIt(func() error { _, _, err := op.run(ctx); return err })
	}
	var effs []float64
	for i, op := range ops {
		var t1, tp []float64
		for r := 0; r < reps; r++ {
			ms1, err := runMs(serial[i])
			if err != nil {
				return 0, err
			}
			msp, err := runMs(op)
			if err != nil {
				return 0, err
			}
			t1, tp = append(t1, ms1), append(tp, msp)
		}
		effs = append(effs, ratio(median(t1), p*median(tp)))
	}
	return geomean(effs), nil
}
