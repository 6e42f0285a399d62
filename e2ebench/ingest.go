package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"wcoj"
	"wcoj/internal/delta"
	"wcoj/internal/trie"
	"wcoj/internal/wal"
)

const (
	// ingestTail is the number of batches applied between the final
	// Compact and Close: the log tail recovery replays, independent of
	// when background compaction last ran (the tail stays far below the
	// compaction threshold).
	ingestTail = 16
	// recoveryRepeats is how many times the final directory is
	// reopened; recovery time is the median.
	recoveryRepeats = 3
	// probeBatches is the length of the batch prefix the traced run
	// replays through the single-layer probes.
	probeBatches = 60
	// readRows is the row count of the reader's enumeration.
	readRows = 100
)

type ingestView struct {
	src  string
	opts wcoj.MaterializeOptions
}

// ingestViews are the three maintained views: one COUNT, one EXISTS and
// one projected ROWS.
var ingestViews = []ingestView{
	{triangleE, wcoj.MaterializeOptions{Mode: wcoj.MaterializeCount}},
	{"Q(A,B,C) :- E(A,B), E(B,C), E(C,A).", wcoj.MaterializeOptions{Mode: wcoj.MaterializeExists}},
	{triangleE, wcoj.MaterializeOptions{Mode: wcoj.MaterializeRows, Project: []string{"A"}}},
}

// setupIngest opens a fresh durable DB in dir, registers E and arms the
// views (withViews false gives the view-less twin).
func setupIngest(dir string, e *wcoj.Relation, withViews bool) (*wcoj.DB, []*wcoj.MaterializedQuery, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	db, err := wcoj.OpenDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := db.Register(e); err != nil {
		db.Close()
		return nil, nil, err
	}
	var views []*wcoj.MaterializedQuery
	for _, v := range ingestViews {
		if !withViews {
			break
		}
		mq, err := db.Materialize(v.src, v.opts)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		views = append(views, mq)
	}
	return db, views, nil
}

// applyChecked applies one generated batch and checks its UpdateStats
// against the generator's expectation.
func applyChecked(db *wcoj.DB, b *genBatch) error {
	us, err := db.Apply(b.batch())
	if err != nil {
		return err
	}
	if us.Inserted != len(b.ins) || us.Deleted != len(b.del) || us.InsertNoops != len(b.noopIns) || us.DeleteNoops != len(b.noopDel) {
		return fmt.Errorf("%w: batch of %d ops gave +%d -%d noops +%d -%d, want +%d -%d noops +%d -%d",
			errWrong, b.ops(), us.Inserted, us.Deleted, us.InsertNoops, us.DeleteNoops,
			len(b.ins), len(b.del), len(b.noopIns), len(b.noopDel))
	}
	return nil
}

// read runs read i of the reader's cycle on the prepared p=1 triangle
// query — its count, its existence, or its first readRows rows — and
// checks it. When no batch was published while it ran, the answer must
// match the COUNT view at that epoch; rows must always come in
// canonical order.
func read(ctx context.Context, db *wcoj.DB, pq *wcoj.PreparedQuery, countView *wcoj.MaterializedQuery, i int) (checked bool, err error) {
	e0 := db.Stats().Epoch
	var n int
	switch i % 3 {
	case 0:
		n, _, err = pq.Count(ctx)
	case 1:
		var ok bool
		ok, _, err = pq.Exists(ctx)
		if ok {
			n = 1
		}
	default:
		var prev wcoj.Tuple
		_, err = pq.ExecuteFunc(ctx, func(t wcoj.Tuple) error {
			if prev != nil && !less(prev, t) {
				return fmt.Errorf("%w: row %v after %v breaks the canonical order", errWrong, t, prev)
			}
			prev = append(prev[:0], t...)
			if n++; n == readRows {
				return errEnough
			}
			return nil
		})
		if errors.Is(err, errEnough) {
			err = nil
		}
	}
	if err != nil {
		return false, err
	}
	res := countView.Result()
	if db.Stats().Epoch != e0 || res.Epoch != e0 {
		return false, nil
	}
	want := int(res.Count)
	switch i % 3 {
	case 1:
		want = min(want, 1)
	case 2:
		want = min(want, readRows)
	}
	if n != want {
		return false, fmt.Errorf("%w: read %d gave %d at epoch %d, want %d", errWrong, i%3, n, e0, want)
	}
	return true, nil
}

func less(a, b wcoj.Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

type ingestPhase struct {
	reads, writes      []float64
	readsByKind        [3][]float64 // reads by kind, i % 3 in read
	elapsed            time.Duration
	failed, unchecked  int
	userBytes, written int64
	compactions        int
}

// runIngestPhase runs the writer and the reader side by side for d.
func runIngestPhase(db *wcoj.DB, views []*wcoj.MaterializedQuery, pq *wcoj.PreparedQuery, gen *batchGen, d time.Duration, tr *tracer) (*ingestPhase, error) {
	ph := &ingestPhase{}
	c0 := db.Stats().Compactions
	w0, err := procWritten()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := int64(1); time.Since(start) < d && !stopped(); id++ {
			b := gen.next()
			root := tr.begin("bench.batch", -1, id)
			sp := tr.begin("wcoj.apply", root, id)
			ms, err := timeIt(func() error { return applyChecked(db, b) })
			tr.end(sp)
			tr.end(root)
			if err != nil {
				if errors.Is(err, errWrong) {
					fail(err)
					return
				}
				logf("ingest: apply: %v", err)
				mu.Lock()
				ph.failed++
				mu.Unlock()
				continue
			}
			tr.count("wcoj.apply_ops", float64(b.ops()))
			ph.writes = append(ph.writes, ms)
			ph.userBytes += tupleBytes(b.ops(), 2)
		}
	}()
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; time.Since(start) < d && !stopped(); i++ {
			id := int64(-1 - i)
			root := tr.begin("bench.read", -1, id)
			sp := tr.begin("wcoj.read", root, id)
			t0 := time.Now()
			checked, err := read(ctx, db, pq, views[0], i)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.end(sp)
			tr.end(root)
			if err != nil {
				if errors.Is(err, errWrong) {
					fail(err)
					return
				}
				logf("ingest: read: %v", err)
				mu.Lock()
				ph.failed++
				mu.Unlock()
				continue
			}
			if !checked {
				ph.unchecked++
			}
			ph.reads = append(ph.reads, ms)
			ph.readsByKind[i%3] = append(ph.readsByKind[i%3], ms)
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.compactions = int(db.Stats().Compactions - c0)
	w1, err := procWritten()
	if err != nil {
		return nil, err
	}
	ph.written = w1 - w0
	return ph, firstErr
}

// viewState is what a view answered at one epoch.
type viewState struct {
	count int64
	rows  string
}

func viewStates(views []*wcoj.MaterializedQuery) []viewState {
	sort.Slice(views, func(i, j int) bool { return views[i].ID() < views[j].ID() })
	out := make([]viewState, len(views))
	for i, v := range views {
		res := v.Result()
		out[i].count = res.Count
		if res.Rows != nil {
			out[i].rows = fmt.Sprint(res.Rows.Tuples())
		}
	}
	return out
}

// checkViews compares every view with a from-scratch evaluation at the
// current epoch; no writer may run.
func checkViews(db *wcoj.DB, views []*wcoj.MaterializedQuery) error {
	epoch := db.Stats().Epoch
	for i, v := range ingestViews {
		res := views[i].Result()
		if res.Err != nil || res.Epoch != epoch {
			return fmt.Errorf("%w: view %d at epoch %d (err %v), DB at %d", errWrong, i, res.Epoch, res.Err, epoch)
		}
		q, err := db.Bind(v.src)
		if err != nil {
			return err
		}
		opts := wcoj.Options{Parallelism: 1, Project: v.opts.Project}
		switch v.opts.Mode {
		case wcoj.MaterializeRows:
			rel, _, err := wcoj.Execute(q, opts)
			if err != nil {
				return err
			}
			if got, want := fmt.Sprint(res.Rows.Tuples()), fmt.Sprint(rel.Tuples()); got != want {
				return fmt.Errorf("%w: rows view holds %d rows, recompute %d", errWrong, res.Rows.Len(), rel.Len())
			}
		default:
			n, _, err := wcoj.Count(q, opts)
			if err != nil {
				return err
			}
			ok := res.Count == int64(n)
			if v.opts.Mode == wcoj.MaterializeExists {
				ok = (res.Count != 0) == (n != 0)
			}
			if !ok {
				return fmt.Errorf("%w: view %d holds %d, recompute %d", errWrong, i, res.Count, n)
			}
		}
	}
	return nil
}

// acked is the state the final Close acknowledged.
type acked struct {
	epoch  uint64
	tuples int
	views  []viewState
}

// finishIngest makes the replayed tail independent of background
// compaction timing: reopen, Compact, apply ingestTail batches, Close.
// It returns what was acknowledged.
func finishIngest(dir string, gen *batchGen) (*acked, error) {
	db, err := wcoj.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.Compact(); err != nil {
		return nil, err
	}
	for i := 0; i < ingestTail; i++ {
		if err := applyChecked(db, gen.next()); err != nil {
			return nil, err
		}
	}
	st := db.Stats()
	a := &acked{epoch: st.Epoch, tuples: st.Tuples, views: viewStates(db.MaterializedViews())}
	return a, db.Close()
}

// recoverIngest reopens the final directory and checks that the
// recovered epoch, tuple count and view values are the acknowledged
// ones. It returns the OpenDir time in seconds.
func recoverIngest(dir string, want *acked) (float64, error) {
	start := time.Now()
	db, err := wcoj.OpenDir(dir)
	took := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	defer db.Close()
	st := db.Stats()
	if st.Epoch != want.epoch || st.Tuples != want.tuples {
		return 0, fmt.Errorf("%w: recovered epoch %d with %d tuples, acknowledged %d with %d", errWrong, st.Epoch, st.Tuples, want.epoch, want.tuples)
	}
	if got := viewStates(db.MaterializedViews()); fmt.Sprint(got) != fmt.Sprint(want.views) {
		return 0, fmt.Errorf("%w: recovered views differ from the acknowledged ones", errWrong)
	}
	return took, db.Close()
}

func runIngest(c config) (*outcome, error) {
	e := ingestE(c.seed)
	var db *wcoj.DB
	var views []*wcoj.MaterializedQuery
	var dir string
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(c.workdir, fmt.Sprintf("db-%d", i))
		runtime.GC() // the last set-up's DB is garbage now; do not time its collection
		start := time.Now()
		var err error
		if db, views, err = setupIngest(dir, e, true); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer db.Close()
	pq, err := db.Prepare(triangleE, wcoj.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	gen := newBatchGen(e, c.seed)

	untracedFor, tracedFor := splitPhase(c)
	ph, err := runIngestPhase(db, views, pq, gen, untracedFor, nil)
	if err != nil {
		return nil, err
	}
	var tph *ingestPhase
	var tr *tracer
	var g0, g1 goCounters
	if c.trace {
		tr = newTracer()
		g0 = readGoCounters()
		if tph, err = runIngestPhase(db, views, pq, gen, tracedFor, tr); err != nil {
			return nil, err
		}
		g1 = readGoCounters()
	}
	if err := checkViews(db, views); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	ack, err := finishIngest(dir, gen)
	if err != nil {
		return nil, err
	}
	var recov []float64
	for i := 0; i < recoveryRepeats; i++ {
		s, err := recoverIngest(dir, ack)
		if err != nil {
			return nil, err
		}
		recov = append(recov, s)
	}
	final, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}

	o := &outcome{attempted: len(ph.reads) + len(ph.writes) + ph.failed, failed: ph.failed}
	logf("ingest: %d batches, %d reads (%d not checkable: a batch landed mid-read), %d compactions",
		len(ph.writes), len(ph.reads), ph.unchecked, ph.compactions)
	if ph.compactions < 3 {
		logf("ingest: warning: only %d compactions in the timed phase", ph.compactions)
	}
	writeAmp := ratio(float64(ph.written), float64(ph.userBytes))
	spaceAmp := ratio(float64(final), float64(tupleBytes(ack.tuples, 2)))
	if !c.trace {
		o.set("setup_s", "s", median(setups))
		o.setReads(ph.reads, kindsP50(ph.readsByKind[:]), ph.elapsed, "ingest")
		o.set("success_rate", "fraction", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
		o.set("peak_rss_mb", "MiB", rss)
		return o, nil
	}
	// The write side of the untraced half, recovery and amplification.
	o.set("ingest.write_batches_per_s", "batches/s", float64(len(ph.writes))/ph.elapsed.Seconds())
	o.set("ingest.write_p50_ms", "ms", median(ph.writes))
	wt, p, beyond := tail(ph.writes, readTailP)
	logf("ingest: write tail at p%g with %d samples beyond", p, beyond)
	o.set("ingest.write_tail_ms", "ms", wt)
	o.set("ingest.recovery_s", "s", median(recov))
	o.set("ingest.write_amp", "ratio", writeAmp)
	o.set("ingest.space_amp", "ratio", spaceAmp)
	o.set("ingest.compactions", "count", float64(ph.compactions))

	o.attempted += len(tph.reads) + len(tph.writes) + tph.failed
	o.failed += tph.failed
	o.overhead(kindsP50(ph.readsByKind[:]), kindsP50(tph.readsByKind[:]))
	o.setGo(g0, g1, len(tph.reads)+len(tph.writes))
	o.set("wcoj.compactions", "per_1k_batches", ratio(1000*float64(tph.compactions), float64(len(tph.writes))))
	if err := probeWritePath(o, c.workdir, dir, e, c.seed); err != nil {
		return nil, err
	}
	if err := probeStorage(o, c.workdir, []*wcoj.Relation{e}); err != nil {
		return nil, err
	}
	return o, tr.write(c.tracePath)
}

// probeWritePath measures the write-path layers one call at a time on
// the first probeBatches batches of the seed's stream: view
// maintenance against a view-less twin, delta versioning, the trie
// merge a reader pays after each batch, WAL append+fsync and rotation,
// and replay of the final directory.
func probeWritePath(o *outcome, work, finalDir string, e *wcoj.Relation, seed int64) error {
	gen := newBatchGen(e, seed)
	batches := make([]*genBatch, probeBatches)
	for i := range batches {
		batches[i] = gen.next()
	}

	vdir, tdir := filepath.Join(work, "probe-views"), filepath.Join(work, "probe-twin")
	vdb, _, err := setupIngest(vdir, e, true)
	if err != nil {
		return err
	}
	tdb, _, err := setupIngest(tdir, e, false)
	if err != nil {
		vdb.Close()
		return err
	}
	var withViews, twin []float64
	for _, b := range batches {
		for _, x := range []struct {
			db  *wcoj.DB
			dst *[]float64
		}{{vdb, &withViews}, {tdb, &twin}} {
			ms, err := timeIt(func() error { return applyChecked(x.db, b) })
			if err != nil {
				vdb.Close()
				tdb.Close()
				return err
			}
			*x.dst = append(*x.dst, ms)
		}
	}
	if err := vdb.Close(); err != nil {
		return err
	}
	if err := tdb.Close(); err != nil {
		return err
	}
	o.set("wcoj.view_maintain_ms", "ms", median(withViews)-median(twin))
	var rearm []float64
	for i := 0; i < 3; i++ {
		var open [2]float64
		for j, d := range []string{vdir, tdir} {
			start := time.Now()
			db, err := wcoj.OpenDir(d)
			open[j] = float64(time.Since(start).Nanoseconds()) / 1e6
			if err != nil {
				return err
			}
			if err := db.Close(); err != nil {
				return err
			}
		}
		rearm = append(rearm, open[0]-open[1])
	}
	o.set("wcoj.view_rearm_ms", "ms", median(rearm))

	v := delta.New(e)
	base, err := trie.Build(e, e.Attrs())
	if err != nil {
		return err
	}
	log, _, _, err := wal.Open(filepath.Join(work, "probe-wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	var applyMs, mergeMs, syncMs, walBytes []float64
	for i, b := range batches {
		ops := make([]delta.Op, 0, b.ops())
		for _, t := range append(append([]wcoj.Tuple(nil), b.del...), b.noopDel...) {
			ops = append(ops, delta.Op{Del: true, T: t})
		}
		for _, t := range append(append([]wcoj.Tuple(nil), b.ins...), b.noopIns...) {
			ops = append(ops, delta.Op{T: t})
		}
		var next *delta.Version
		ms, err := timeIt(func() (err error) { next, _, err = v.Apply(ops); return err })
		if err != nil {
			return err
		}
		applyMs = append(applyMs, ms)
		if ms, err = timeIt(func() error { _, err := trie.Merge(base, next.Add, next.Del); return err }); err != nil {
			return err
		}
		mergeMs = append(mergeMs, ms)
		v = next
		rec := &wal.Record{Kind: wal.KindBatch, Epoch: uint64(i + 1), Batch: []wal.RelOps{{Rel: "E", Ops: ops}}}
		size0 := log.Size()
		if ms, err = timeIt(func() error {
			if err := log.Append(rec); err != nil {
				return err
			}
			return log.Sync()
		}); err != nil {
			return err
		}
		syncMs = append(syncMs, ms)
		walBytes = append(walBytes, float64(log.Size()-size0))
	}
	o.set("delta.apply_ms", "ms", median(applyMs))
	o.set("trie.merge_ms", "ms", median(mergeMs))
	o.set("wal.append_sync_ms", "ms", median(syncMs))
	o.set("wal.bytes_per_batch", "bytes", mean(walBytes))
	var compacted *delta.Version
	ms, _ := timeIt(func() error { compacted = v.Compacted(); return nil })
	o.set("delta.compact_ms", "ms", ms)
	snap := &wal.Snapshot{Epoch: probeBatches, Rels: []wal.SnapRel{{Epoch: compacted.Epoch, Rel: compacted.Base}}}
	if ms, err = timeIt(func() error { return log.Rotate(snap) }); err != nil {
		return err
	}
	o.set("wal.rotate_ms", "ms", ms)

	var replay []float64
	for i := 0; i < 3; i++ {
		cp := filepath.Join(work, fmt.Sprintf("probe-replay-%d", i))
		if err := copyDir(finalDir, cp); err != nil {
			return err
		}
		var l *wal.Log
		ms, err := timeIt(func() (err error) { l, _, _, err = wal.Open(cp); return err })
		if err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return err
		}
		replay = append(replay, ms)
	}
	o.set("wal.replay_ms", "ms", median(replay))
	return nil
}

// copyDir copies the regular files directly under src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	sizes, err := fileSizes(src)
	if err != nil {
		return err
	}
	for name := range sizes {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
