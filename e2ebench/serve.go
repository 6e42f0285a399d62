package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wcoj"
	"wcoj/internal/planner"
	"wcoj/internal/query"
	"wcoj/internal/relation"
)

const (
	serveClients = 2
	// serveWarmup lets the daemon build its tries and fill the plan
	// cache's hot set before timing starts.
	serveWarmup = 4 * time.Second
	// replayCap bounds the in-process replay of the traced request
	// stream, and chooseCap the planner.Choose calls in it: one costs a
	// few hundred milliseconds, under either policy.
	replayCap = 400
	chooseCap = 10
)

// daemon is one wcojd -serve process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startDaemon spawns wcojd on a loopback port and waits until /readyz
// answers 200; the returned duration is spawn to ready.
func startDaemon(bin, tsv string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-serve", "127.0.0.1:0", "-rel", "E="+tsv)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive a benchmark that dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				sent = true
			}
		}
		io.Copy(io.Discard, out)
		d.done <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
	case err := <-d.done:
		return nil, 0, fmt.Errorf("wcojd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("wcojd did not listen within 30s")
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(60 * time.Second); ; {
		resp, err := probe.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("wcojd not ready within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, time.Since(start), nil
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("wcojd did not drain within 20s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) get(path string, v any) error {
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if b, ok := v.(*[]byte); ok {
		*b, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonCounters are the public counters the traced run differences.
type daemonCounters struct {
	rejected, planHits, planMisses float64
	trieHits, trieMisses           float64
}

func (d *daemon) counters() (daemonCounters, error) {
	var c daemonCounters
	var text []byte
	if err := d.get("/metrics", &text); err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "wcojd_rejected_total{"):
			c.rejected += v
		case name == "wcojd_db_plan_hits_total":
			c.planHits = v
		case name == "wcojd_db_plan_misses_total":
			c.planMisses = v
		}
	}
	var st struct{ TrieHits, TrieMisses float64 }
	if err := d.get("/stats", &st); err != nil {
		return c, err
	}
	c.trieHits, c.trieMisses = st.TrieHits, st.TrieMisses
	return c, nil
}

// answer is the in-process p=1 answer a request must get.
type answer struct {
	count  int
	exists bool
	attrs  []string
	rows   [][]int64 // first maxLimit rows, in the plan's order
	total  int       // full (distinct) output size of a rows request
}

func plannerOf(name string) wcoj.Planner {
	if name == "cost-based" {
		return wcoj.PlannerCostBased
	}
	return wcoj.PlannerAuto
}

var (
	errEnough = errors.New("enough rows")
	// errWrong marks a wrong answer: it aborts the run, where an error
	// the program reports only counts as a failed operation.
	errWrong = errors.New("wrong answer")
)

// serveOracle computes, on an in-process DB at p=1, the answer of every
// distinct request the pool can send.
func serveOracle(e *wcoj.Relation, pool []serveReq) (map[string]*answer, error) {
	db := wcoj.NewDB()
	if err := db.Register(e); err != nil {
		return nil, err
	}
	ctx := context.Background()
	maxLimit := serveLimits[len(serveLimits)-1]
	out := make(map[string]*answer)
	for _, r := range pool {
		k := r.oracleKey()
		if out[k] != nil {
			continue
		}
		sh := serveShapes[r.Shape]
		opts := wcoj.Options{Parallelism: 1, Project: r.Project}
		if r.Mode == "rows" {
			opts.Planner = plannerOf(r.Planner)
		}
		pq, err := db.Prepare(sh.src, opts)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", sh.name, err)
		}
		a := &answer{}
		switch r.Mode {
		case "exists":
			a.exists, _, err = pq.Exists(ctx)
		case "count":
			a.count, _, err = pq.Count(ctx)
		default:
			a.attrs = sh.vars
			if r.Project != nil {
				a.attrs = r.Project
			}
			if a.total, _, err = pq.Count(ctx); err != nil {
				break
			}
			_, err = pq.ExecuteFunc(ctx, func(t wcoj.Tuple) error {
				if len(a.rows) == maxLimit {
					return errEnough
				}
				row := make([]int64, len(t))
				for j, v := range t {
					row[j] = int64(v)
				}
				a.rows = append(a.rows, row)
				return nil
			})
			if errors.Is(err, errEnough) {
				err = nil
			}
		}
		if err != nil {
			return nil, fmt.Errorf("oracle %s %s: %w", sh.name, r.Mode, err)
		}
		out[k] = a
	}
	return out, nil
}

type queryResp struct {
	Count     int       `json:"count"`
	Exists    *bool     `json:"exists"`
	Attrs     []string  `json:"attrs"`
	Rows      [][]int64 `json:"rows"`
	Truncated bool      `json:"truncated"`
	ElapsedUS int64     `json:"elapsed_us"`
}

// check compares a response with the oracle: exact counts and
// existence, and for rows the canonical-order prefix of length
// min(limit, total) with the truncation flag.
func (a *answer) check(r serveReq, resp *queryResp) error {
	switch r.Mode {
	case "count":
		if resp.Count != a.count {
			return fmt.Errorf("count %d, want %d", resp.Count, a.count)
		}
	case "exists":
		if resp.Exists == nil || *resp.Exists != a.exists {
			return fmt.Errorf("exists %v, want %v", resp.Exists, a.exists)
		}
	default:
		for i, v := range a.attrs {
			if i >= len(resp.Attrs) || resp.Attrs[i] != r.rename(v) {
				return fmt.Errorf("attrs %v, want %v renamed", resp.Attrs, a.attrs)
			}
		}
		k := min(r.Limit, a.total)
		if len(resp.Rows) != k || resp.Truncated != (a.total > r.Limit) {
			return fmt.Errorf("%d rows (truncated %v), want %d of %d", len(resp.Rows), resp.Truncated, k, a.total)
		}
		for i, row := range resp.Rows {
			if fmt.Sprint(row) != fmt.Sprint(a.rows[i]) {
				return fmt.Errorf("row %d is %v, want %v", i, row, a.rows[i])
			}
		}
	}
	return nil
}

// sent is one request a client completed, for the traced replay.
type sent struct {
	at  time.Time
	idx int
}

type servePhase struct {
	lat, engine, overhead []float64
	sent                  []sent
	failed                int
	elapsed               time.Duration
}

// serveLoad is the request stream the clients share: the next request
// is the schedule's next pool position.
type serveLoad struct {
	pool     []serveReq
	bodies   [][]byte
	oracle   map[string]*answer
	schedule []int
	next     int // guarded by the phase's mutex
	reqs     int64
}

// runServePhase runs the closed-loop clients against the daemon for dur.
func runServePhase(d *daemon, load *serveLoad, dur time.Duration, tr *tracer) (*servePhase, error) {
	var mu sync.Mutex
	ph := &servePhase{}
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < serveClients; ci++ {
		client := &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for time.Since(start) < dur {
				mu.Lock()
				stop := firstErr != nil
				load.reqs++
				id := load.reqs
				idx := load.schedule[load.next%len(load.schedule)]
				load.next++
				mu.Unlock()
				if stop {
					return
				}
				r := load.pool[idx]
				root := tr.begin("bench.request", -1, id)
				sp := tr.begin("wcojd.http", root, id)
				t0 := time.Now()
				resp, err := client.Post("http://"+d.addr+"/query", "application/json", bytes.NewReader(load.bodies[idx]))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
					}
				}
				rt := time.Since(t0)
				end := tr.now()
				tr.end(sp)
				tr.end(root)
				if err != nil {
					logf("serve: %s: %v", r.text(), err)
					mu.Lock()
					ph.failed++
					mu.Unlock()
					continue
				}
				var qr queryResp
				if err = json.Unmarshal(body, &qr); err == nil {
					err = load.oracle[r.oracleKey()].check(r, &qr)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%w to %s %v: %v", errWrong, r.text(), r.body(), err)
					}
					mu.Unlock()
					return
				}
				engine := time.Duration(qr.ElapsedUS) * time.Microsecond
				tr.record("wcoj.engine", sp, id, end-engine.Nanoseconds(), end)
				ph.lat = append(ph.lat, float64(rt.Nanoseconds())/1e6)
				ph.engine = append(ph.engine, float64(engine.Nanoseconds())/1e6)
				ph.overhead = append(ph.overhead, float64((rt-engine).Nanoseconds())/1e6)
				tr.count("wcojd.response_bytes", float64(len(body)))
				ph.sent = append(ph.sent, sent{t0, idx})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph, firstErr
}

func runServe(c config) (*outcome, error) {
	if c.wcojd == "" {
		return nil, fmt.Errorf("serve needs -wcojd")
	}
	e := powerLawE(c.seed)
	tsv := filepath.Join(c.workdir, "E.tsv")
	if err := writeTSV(tsv, e); err != nil {
		return nil, err
	}
	pool := servePool()
	bodies := make([][]byte, len(pool))
	for i, r := range pool {
		b, err := json.Marshal(r.body())
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	oracle, err := serveOracle(e, pool)
	if err != nil {
		return nil, err
	}

	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if d, took, err = startDaemon(c.wcojd, tsv); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	load := &serveLoad{pool: pool, bodies: bodies, oracle: oracle, schedule: serveSchedule(len(pool), serveScheduleLen)}
	// The seed also picks where in the schedule the clients start.
	load.next = rand.New(rand.NewSource(c.seed)).Intn(serveScheduleLen)
	o, err := driveServe(c, d, e, load)
	if err == nil && !c.trace {
		o.set("setup_s", "s", median(setups))
	}
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping wcojd: %w", serr)
	}
	return o, err
}

func driveServe(c config, d *daemon, e *wcoj.Relation, load *serveLoad) (*outcome, error) {
	warm, err := runServePhase(d, load, serveWarmup, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(warm.lat) + warm.failed, failed: warm.failed}
	untracedFor, tracedFor := splitPhase(c)
	ph, err := runServePhase(d, load, untracedFor, nil)
	if err != nil {
		return nil, err
	}
	o.attempted += len(ph.lat) + ph.failed
	o.failed += ph.failed
	if !c.trace {
		o.setReads(ph.lat, median(ph.lat), ph.elapsed, "serve")
		o.set("success_rate", "fraction", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
		rss, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		o.set("peak_rss_mb", "MiB", rss)
		return o, nil
	}

	tr := newTracer()
	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	g0 := readGoCounters()
	tph, err := runServePhase(d, load, tracedFor, tr)
	if err != nil {
		return nil, err
	}
	o.setGo(g0, readGoCounters(), len(tph.lat))
	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	o.attempted += len(tph.lat) + tph.failed
	o.failed += tph.failed
	o.overhead(median(ph.lat), median(tph.lat))
	o.set("wcojd.engine_ms", "ms", median(tph.engine))
	o.set("wcojd.overhead_ms", "ms", median(tph.overhead))
	o.set("wcojd.response_bytes", "bytes", tr.total("wcojd.response_bytes")/float64(len(tph.lat)))
	o.set("wcojd.rejected", "count", after.rejected-before.rejected)
	hits, misses := after.planHits-before.planHits, after.planMisses-before.planMisses
	o.set("wcoj.plan_hit_ratio", "ratio", ratio(hits, hits+misses))
	th, tm := after.trieHits-before.trieHits, after.trieMisses-before.trieMisses
	o.set("trie.store_hit_ratio", "ratio", ratio(th, th+tm))

	sort.Slice(tph.sent, func(i, j int) bool { return tph.sent[i].at.Before(tph.sent[j].at) })
	if err := replayFrontend(o, tr, e, load.pool, tph.sent); err != nil {
		return nil, err
	}
	if err := probeStorage(o, c.workdir, []*wcoj.Relation{e}); err != nil {
		return nil, err
	}
	return o, tr.write(c.tracePath)
}

// replayFrontend replays the traced request stream in-process through
// the frontend layers one call at a time: query.Parse, Parsed.Bind,
// DB.Prepare (split by plan-cache hit and miss), and planner.Choose for
// the first chooseCap cold shapes under their policies.
func replayFrontend(o *outcome, tr *tracer, e *wcoj.Relation, pool []serveReq, stream []sent) error {
	db := wcoj.NewDB()
	if err := db.Register(e); err != nil {
		return err
	}
	rdb := relation.NewDatabase()
	rdb.Put(e)
	if len(stream) > replayCap {
		stream = stream[:replayCap]
	}
	var parse, bind, hit, miss, choose []float64
	for i, s := range stream {
		r := pool[s.idx]
		text := r.text()
		id := int64(-1 - i)
		root := tr.begin("bench.replay", -1, id)
		var p *query.Parsed
		var q *wcoj.Query
		var err error
		sp := tr.begin("query.parse", root, id)
		ms, _ := timeIt(func() error { p, err = query.Parse(text); return err })
		tr.end(sp)
		if err != nil {
			return err
		}
		parse = append(parse, ms*1000)
		sp = tr.begin("query.bind", root, id)
		ms, _ = timeIt(func() error { q, err = p.Bind(rdb); return err })
		tr.end(sp)
		if err != nil {
			return err
		}
		bind = append(bind, ms*1000)
		body := r.body()
		opts := wcoj.Options{Planner: plannerOf(r.Planner)}
		if proj, ok := body["project"].([]string); ok {
			opts.Project = proj
		}
		h0 := db.Stats().PlanHits
		sp = tr.begin("wcoj.prepare", root, id)
		ms, err = timeIt(func() error { _, err := db.Prepare(text, opts); return err })
		tr.end(sp)
		if err != nil {
			return err
		}
		switch {
		case db.Stats().PlanHits > h0:
			hit = append(hit, ms*1000)
		case len(choose) == chooseCap:
			miss = append(miss, ms)
		default:
			miss = append(miss, ms)
			policy := planner.Heuristic
			if opts.Planner == wcoj.PlannerCostBased {
				policy = planner.CostBased
			}
			sp = tr.begin("planner.choose", root, id)
			ms, err = timeIt(func() error { _, err := planner.Choose(q, planner.Options{Policy: policy}); return err })
			tr.end(sp)
			if err != nil {
				return err
			}
			choose = append(choose, ms)
		}
		tr.end(root)
	}
	o.set("query.parse_us", "us", median(parse))
	o.set("query.bind_us", "us", median(bind))
	o.set("wcoj.prepare_hit_us", "us", median(hit))
	o.set("wcoj.prepare_miss_ms", "ms", median(miss))
	o.set("planner.choose_ms", "ms", median(choose))
	return nil
}
