// Command e2ebench is the repository's end-to-end benchmark. It
// generates one workload's inputs from a seed, drives the program the
// way its users do — the wcoj library in-process (analytics, ingest)
// or a wcojd daemon over loopback HTTP (serve) — checks every answer,
// and prints the metrics as the last line of standard output:
//
//	bash e2ebench/run.sh --workload serve --seed 7 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// makes a traced run instead: half the time untraced, half with spans
// around every call into a layer, then per-layer probes; it prints the
// per-layer metrics and writes the spans beside the work directory. A
// wrong answer aborts the run with exit status 1 and no result line.
// See README.md for the metrics and the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	wcojd     string
	workdir   string
	tracePath string // where a traced run writes its spans
}

// setupRepeats is how many times a run sets up its workload; setup_s
// is the median.
const setupRepeats = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"read_qps":     "ops/s",
	"read_p50_ms":  "ms",
	"read_tail_ms": "ms",
	"success_rate": "fraction",
	"peak_rss_mb":  "MiB",
}

// perLayer lists the per-layer metrics every traced run prints. A
// metric a workload does not exercise reads 0 there; README.md says
// which workload measures each.
var perLayer = map[string]string{
	"wcojd.engine_ms":              "ms",
	"wcojd.overhead_ms":            "ms",
	"wcojd.response_bytes":         "bytes",
	"wcojd.rejected":               "count",
	"wcoj.plan_hit_ratio":          "ratio",
	"wcoj.prepare_hit_us":          "us",
	"wcoj.prepare_miss_ms":         "ms",
	"query.parse_us":               "us",
	"query.bind_us":                "us",
	"planner.choose_ms":            "ms",
	"relation.load_ms":             "ms",
	"trie.build_ms":                "ms",
	"trie.bytes":                   "bytes",
	"trie.store_hit_ratio":         "ratio",
	"trie.intersect_values_per_op": "count",
	"core.search_ms":               "ms",
	"lftj.search_ms":               "ms",
	"core.recursions_per_op":       "count",
	"core.agg_multiplies_per_op":   "count",
	"core.memo_hits_per_op":        "count",
	"core.parallel_efficiency":     "ratio",
	"lftj.gj_ratio":                "ratio",
	"go.allocs_per_op":             "count",
	"go.alloc_bytes_per_op":        "bytes",
	"go.gc_cpu_frac":               "fraction",
	"trie.merge_ms":                "ms",
	"delta.apply_ms":               "ms",
	"wal.append_sync_ms":           "ms",
	"wal.bytes_per_batch":          "bytes",
	"wcoj.view_maintain_ms":        "ms",
	"wcoj.compactions":             "per_1k_batches",
	"delta.compact_ms":             "ms",
	"wal.rotate_ms":                "ms",
	"wal.replay_ms":                "ms",
	"wcoj.view_rearm_ms":           "ms",
	"trace.overhead_frac":          "fraction",
	"ingest.write_batches_per_s":   "batches/s",
	"ingest.write_p50_ms":          "ms",
	"ingest.write_tail_ms":         "ms",
	"ingest.recovery_s":            "s",
	"ingest.write_amp":             "ratio",
	"ingest.space_amp":             "ratio",
	"ingest.compactions":           "count",
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "analytics, serve or ingest")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 makes a traced run that prints the per-layer metrics")
	flag.StringVar(&c.wcojd, "wcojd", "", "wcojd binary (serve workload)")
	flag.StringVar(&c.workdir, "workdir", ".bench_build/run", "directory for generated inputs, durable state and traces")
	flag.Parse()
	c.trace = *trace == 1
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if c.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	runs := map[string]func(config) (*outcome, error){
		"analytics": runAnalytics,
		"serve":     runServe,
		"ingest":    runIngest,
	}
	f, ok := runs[c.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want analytics, serve or ingest)", c.workload)
	}
	name := fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid())
	c.tracePath = filepath.Join(c.workdir, name+".trace.json")
	c.workdir = filepath.Join(c.workdir, name)
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return err
	}
	o, err := f(c)
	if rmErr := os.RemoveAll(c.workdir); err == nil {
		err = rmErr
	}
	if err != nil {
		return err
	}
	if c.trace {
		logf("trace written to %s", c.tracePath)
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	for name, unit := range want {
		m, ok := o.metrics[name]
		if !ok && !c.trace {
			return fmt.Errorf("the run did not measure %s", name)
		}
		if !ok {
			m = metric{Unit: unit} // a layer this workload does not exercise
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s: unit %q, want %q", name, m.Unit, unit)
		}
		res.Metrics[name] = m
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	logMetrics(res.Metrics)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func logMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// logf reports progress on standard error; standard output carries
// only the result line.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of a
// process ("self" or a pid).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// goCounters samples the Go runtime counters behind the go.* metrics.
type goCounters struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{
		mallocs:  s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// setGo reports the allocation and GC-CPU deltas between two samples
// over ops operations.
func (o *outcome) setGo(before, after goCounters, ops int) {
	o.set("go.allocs_per_op", "count", ratio(float64(after.mallocs-before.mallocs), float64(ops)))
	o.set("go.alloc_bytes_per_op", "bytes", ratio(float64(after.bytes-before.bytes), float64(ops)))
	o.set("go.gc_cpu_frac", "fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}

// readTailP is the percentile read_tail_ms reports on every workload.
// Each workload has over 500 reads a run, so over 50 lie beyond it.
// Serve and ingest would allow p99, but with only about 30 samples
// beyond it ingest's p99 moved 23% between seeds where its p90 moved 4%.
const readTailP = 90

// setReads reports the read-side end-to-end metrics of one timed phase;
// p50 is its read_p50_ms.
func (o *outcome) setReads(lat []float64, p50 float64, elapsed time.Duration, label string) {
	o.set("read_qps", "ops/s", float64(len(lat))/elapsed.Seconds())
	o.set("read_p50_ms", "ms", p50)
	v, p, beyond := tail(lat, readTailP)
	o.set("read_tail_ms", "ms", v)
	hp, hb, _ := tailPercentile(len(lat))
	logf("%s: %d reads, tail at p%g with %d samples beyond (highest step with %d beyond: p%g, %d beyond)",
		label, len(lat), p, beyond, minBeyond, hp, hb)
}

// timeIt runs f and returns its duration in milliseconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// splitPhase divides a traced run's time between its untraced and
// traced halves.
func splitPhase(c config) (untraced, traced time.Duration) {
	d := time.Duration(c.seconds) * time.Second
	if !c.trace {
		return d, 0
	}
	return d / 2, d / 2
}

// overhead reports trace.overhead_frac from the read_p50_ms of the
// untraced and the traced half.
func (o *outcome) overhead(untraced, traced float64) {
	o.set("trace.overhead_frac", "fraction", ratio(traced-untraced, untraced))
}
