package core

// Parallel sharded execution. The search parallelizes the same way
// under either walk: the depth-0 intersection — the distinct values of
// the first variable in the global order that appear in every
// participating atom — is computed once and cut into contiguous
// equal-work morsels (Plan.TopMorsels), and each morsel is searched by
// the existing serial recursion with fully private state (level
// cursors, binding tuple, Stats). Workers share only the immutable
// tries. Morsel results are consumed in ascending morsel index order,
// and because morsels are contiguous ranges of the sorted top-level
// values, the emitted tuple sequence is byte-identical to the serial
// run at any worker count.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"wcoj/internal/relation"
)

// shardChunkFactor oversplits the top-level values relative to the
// worker count: a run is cut into about workers*shardChunkFactor
// morsels of equal work, so a worker that drew a slow morsel is
// covered by its siblings draining the rest.
const shardChunkFactor = 4

// ErrAborted is injected through a chunk's emit path (and returned by
// worker stop-flag polls) once a sibling chunk has failed, the
// consuming sink has errored, or the run's context was cancelled. It
// unwinds a search mid-flight instead of letting it run to completion
// and is never returned from the package-level entry points — they
// translate it to the causing error (see CtxAbortErr).
var ErrAborted = errors.New("core: sharded run aborted")

// CtxErr returns the context's error, tolerating nil contexts.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// WatchCancel links ctx cancellation to a stop flag the search workers
// poll: once ctx is done, stop is set and in-flight searches unwind at
// their next poll instead of enumerating to completion. The returned
// cleanup releases the watcher goroutine and must be called (defer it)
// when the run ends. Nil or never-cancelled contexts cost nothing.
func WatchCancel(ctx context.Context, stop *atomic.Bool) func() {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// CtxAbortErr translates the ErrAborted sentinel of a cancelled serial
// search into the context's error; other errors pass through.
func CtxAbortErr(ctx context.Context, err error) error {
	if err == ErrAborted {
		if cerr := CtxErr(ctx); cerr != nil {
			return cerr
		}
		return context.Canceled
	}
	return err
}

// shardRun searches one chunk of top-level values, writing counters to
// st and tuples to emit. It runs on a worker goroutine with no state
// shared with other chunks except the run's stop flag, which the
// search should poll (cheaply, every few hundred nodes) and unwind on
// by returning ErrAborted.
type shardRun func(chunk []relation.Value, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error

// shardSink consumes the output of sharded execution. chunkEmit is
// called from worker goroutines (concurrently, but never concurrently
// for the same chunk); finishChunk is called from the coordinating
// goroutine in ascending chunk order.
type shardSink interface {
	bind(numChunks int, stop *atomic.Bool)
	chunkEmit(chunk int) func(relation.Tuple) error
	finishChunk(chunk int) error
}

// runSharded runs run over the morsels (chunks) of vals — chunk c is
// vals[starts[c]:starts[c+1]], see Plan.TopMorsels — on
// min(workers, chunks) goroutines. Per-chunk Stats are merged
// into parentStats in chunk order; the first error (from a chunk or
// from the sink) aborts the remaining work — queued chunks are
// skipped, and in-flight chunks are unwound at their next emitted
// tuple via ErrAborted. Chunk issue is windowed: a chunk is only
// handed to a worker once all chunks more than workers+2 positions
// behind it have been consumed by the sink, bounding how
// much un-consumed output the ordered sinks can buffer. It returns
// only after all worker goroutines have exited, so the caller may
// reuse any state afterwards.
func runSharded(ctx context.Context, vals []relation.Value, starts []int, workers int, parentStats *Stats, run shardRun, sink shardSink) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	var abort atomic.Bool
	numChunks, workers := morselCount(starts, workers)
	sink.bind(numChunks, &abort)
	if numChunks == 0 {
		return nil
	}

	chunkStats := make([]Stats, numChunks)
	chunkErrs := make([]error, numChunks)
	done := make([]chan struct{}, numChunks)
	consumed := make([]chan struct{}, numChunks)
	for i := range done {
		done[i] = make(chan struct{})
		consumed[i] = make(chan struct{})
	}
	defer WatchCancel(ctx, &abort)()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if !abort.Load() {
					emit := sink.chunkEmit(c)
					chunkErrs[c] = run(vals[starts[c]:starts[c+1]], &chunkStats[c], &abort,
						func(t relation.Tuple) error {
							if abort.Load() {
								return ErrAborted
							}
							return emit(t)
						})
					if chunkErrs[c] != nil {
						abort.Store(true)
					}
				}
				close(done[c])
			}
		}()
	}
	// Windowed issue: chunk c is released only after chunk c-window
	// has been consumed, so at most window chunks are ever buffered
	// ahead of the sink (keeps all workers busy since window >
	// workers, while bounding ordered-sink memory).
	window := workers + 2
	go func() {
		for c := 0; c < numChunks; c++ {
			if c >= window {
				<-consumed[c-window]
			}
			next <- c
		}
		close(next)
	}()

	var err error
	for c := 0; c < numChunks; c++ {
		<-done[c]
		cerr := chunkErrs[c]
		switch {
		case err != nil || cerr == ErrAborted:
			// A chunk unwound by the abort flag produced partial
			// output; never merge or consume it.
		case cerr != nil:
			err = cerr
		default:
			parentStats.Merge(&chunkStats[c])
			if ferr := sink.finishChunk(c); ferr != nil {
				// A sink replay unwound by the abort flag means the
				// ctx was cancelled mid-replay; surface the cause,
				// never the sentinel.
				err = CtxAbortErr(ctx, ferr)
				abort.Store(true)
			}
		}
		// Unblock the issuing goroutine regardless of errors.
		close(consumed[c])
	}
	wg.Wait()
	if err == nil {
		// A cancelled run's chunks unwind with ErrAborted, which is
		// never surfaced per chunk; report the cancellation itself.
		err = CtxErr(ctx)
	}
	return err
}

// bufferSink buffers each chunk's tuples flat (arity values per tuple)
// and replays them to the user's emit in chunk order, preserving the
// serial emission sequence. The Tuple passed on is reused between
// calls, matching the serial visit contract.
type bufferSink struct {
	arity int
	emit  func(relation.Tuple) error
	stop  *atomic.Bool
	bufs  [][]relation.Value
}

func newBufferSink(arity int, emit func(relation.Tuple) error) *bufferSink {
	return &bufferSink{arity: arity, emit: emit}
}

func (s *bufferSink) bind(numChunks int, stop *atomic.Bool) {
	s.bufs = make([][]relation.Value, numChunks)
	s.stop = stop
}

func (s *bufferSink) chunkEmit(chunk int) func(relation.Tuple) error {
	return func(t relation.Tuple) error {
		s.bufs[chunk] = append(s.bufs[chunk], t...)
		return nil
	}
}

func (s *bufferSink) finishChunk(chunk int) error {
	buf := s.bufs[chunk]
	for i, n := 0, 0; i < len(buf); i += s.arity {
		// A chunk can hold an arbitrary number of buffered tuples and
		// the user's emit can be slow; poll so a cancelled run does
		// not replay a huge buffer to completion.
		if n++; n&255 == 0 && s.stop.Load() {
			return ErrAborted
		}
		if err := s.emit(relation.Tuple(buf[i : i+s.arity])); err != nil {
			return err
		}
	}
	s.bufs[chunk] = nil // release as soon as replayed
	return nil
}

// countSink counts tuples per chunk without buffering them — the
// streaming enumeration mode keeps zero per-tuple state even under
// parallelism.
type countSink struct {
	counts []int
	total  int
}

func newCountSink() *countSink { return &countSink{} }

func (s *countSink) bind(numChunks int, _ *atomic.Bool) { s.counts = make([]int, numChunks) }

func (s *countSink) chunkEmit(chunk int) func(relation.Tuple) error {
	return func(relation.Tuple) error {
		s.counts[chunk]++
		return nil
	}
}

func (s *countSink) finishChunk(chunk int) error {
	s.total += s.counts[chunk]
	return nil
}

// morselCount returns the number of morsels starts describes and the
// worker count clamped to it.
func morselCount(starts []int, workers int) (numChunks, w int) {
	numChunks = max(len(starts)-1, 0)
	return numChunks, min(workers, numChunks)
}

// TopMorsels computes the depth-0 intersection (TopValues) and cuts it
// into contiguous, ascending morsels of roughly equal work for a run
// on workers goroutines: morsel c is vals[starts[c]:starts[c+1]], and
// starts runs from 0 to len(vals).
//
// Work is weighed by rows of the largest depth-0 participant. With
// m = min(workers*shardChunkFactor, len(vals)), a cut sits at each of
// the m-1 equal-row quantiles of that trie's level-0 row offsets,
// located by two binary searches: row → segment, segment key → index
// in vals. A value holding more than rows/m rows (a hub of a skewed
// input) is cut out into a morsel of its own, so a power-law graph's
// adjacent hubs no longer land in one chunk and serialize the run.
// Equal-count cuts at every len(vals)/m values are merged in too, so a
// depth-0 intersection that keeps only a sliver of the weighing
// trie's rows still spreads over all workers. Beyond TopValues the
// cuts cost O(m log n); nothing is cached on the plan.
func (p *Plan) TopMorsels(workers int) (vals []relation.Value, starts []int) {
	vals = p.TopValues(nil)
	n := len(vals)
	if n == 0 {
		return vals, []int{0}
	}
	m := min(max(workers, 1)*shardChunkFactor, n)
	tr := p.Tries[p.Participants[0][0]]
	for _, ai := range p.Participants[0][1:] {
		if p.Tries[ai].Len() > tr.Len() {
			tr = p.Tries[ai]
		}
	}
	rows := tr.Len()
	cuts := make([]int, 0, 3*m)
	for j := 1; j < m; j++ {
		cuts = append(cuts, j*n/m)
		s := tr.SegAtRow(0, j*rows/m)
		v := tr.SegKey(0, s)
		i := sort.Search(n, func(i int) bool { return vals[i] >= v })
		cuts = append(cuts, i)
		if lo, hi := tr.SegRows(0, s); (hi-lo)*m > rows && i < n && vals[i] == v {
			cuts = append(cuts, i+1)
		}
	}
	sort.Ints(cuts)
	starts = make([]int, 1, len(cuts)+2)
	for _, c := range cuts {
		if c > starts[len(starts)-1] && c < n {
			starts = append(starts, c)
		}
	}
	return vals, append(starts, n)
}

// runShardedSum runs run over the morsels of vals (starts as returned
// by Plan.TopMorsels) and sums the per-morsel int64 results. Unlike
// the tuple-emitting runner no output ordering is needed, so chunks
// are claimed from an atomic counter; per-chunk Stats are still merged
// in chunk order, keeping counter totals deterministic for a fixed
// worker count. The aggregate count uses it.
func runShardedSum(ctx context.Context, vals []relation.Value, starts []int, workers int, parentStats *Stats,
	run func(chunk []relation.Value, st *Stats, stop *atomic.Bool) (int64, error)) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	numChunks, w := morselCount(starts, workers)
	if numChunks == 0 {
		return 0, nil
	}
	chunkStats := make([]Stats, numChunks)
	sums := make([]int64, numChunks)
	errs := make([]error, numChunks)
	var abort atomic.Bool
	defer WatchCancel(ctx, &abort)()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks || abort.Load() {
					return
				}
				sums[c], errs[c] = run(vals[starts[c]:starts[c+1]], &chunkStats[c], &abort)
				if errs[c] != nil {
					abort.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	aborted := false
	for c := 0; c < numChunks; c++ {
		if errs[c] == ErrAborted {
			aborted = true
			continue
		}
		if errs[c] != nil {
			return 0, errs[c]
		}
		parentStats.Merge(&chunkStats[c])
		total += sums[c]
	}
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if aborted {
		// A chunk unwound on the abort flag but no cause surfaced (it
		// was claimed before a sibling's error stored the flag).
		return 0, context.Canceled
	}
	return total, nil
}

// runShardedAny runs run over the morsels of vals (starts as returned
// by Plan.TopMorsels) and reports whether any morsel found a witness.
// The shared stop flag is set as soon as one
// does (or a chunk errors); chunk searches are expected to poll it and
// unwind, so the whole fleet short-circuits on the first witness.
// Stats are merged from every chunk that ran; because chunks race the
// stop flag, counter totals (unlike the boolean result) are not
// deterministic across runs.
func runShardedAny(ctx context.Context, vals []relation.Value, starts []int, workers int, parentStats *Stats,
	run func(chunk []relation.Value, st *Stats, stop *atomic.Bool) (bool, error)) (bool, error) {
	if err := CtxErr(ctx); err != nil {
		return false, err
	}
	numChunks, w := morselCount(starts, workers)
	if numChunks == 0 {
		return false, nil
	}
	chunkStats := make([]Stats, numChunks)
	errs := make([]error, numChunks)
	var stop atomic.Bool
	defer WatchCancel(ctx, &stop)()
	var found atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks || stop.Load() {
					return
				}
				ok, err := run(vals[starts[c]:starts[c+1]], &chunkStats[c], &stop)
				errs[c] = err
				if err != nil || ok {
					stop.Store(true)
				}
				if ok && err == nil {
					found.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for c := 0; c < numChunks; c++ {
		if errs[c] != nil && errs[c] != ErrAborted {
			return false, errs[c]
		}
		parentStats.Merge(&chunkStats[c])
	}
	if found.Load() {
		return true, nil
	}
	return false, CtxErr(ctx)
}
