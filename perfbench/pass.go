package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hpcfail/hpcfail/internal/replay"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

const (
	// setupRuns is how many times a pass boots the server; setup_s is the
	// median, and the last server booted takes the load.
	setupRuns = 7
	// warmup is the closed-loop time before measurement starts, so the
	// connections are dialed and the result cache has reached its steady
	// state.
	warmup = time.Second
	// slices splits the measured window into equal parts of load, with a
	// probe of the host's speed between them (probe.go). Throughput, CPU
	// and allocation are computed per slice and reported as the median
	// over slices, so that a slice disturbed by another tenant of the host
	// does not move them.
	slices = 10
	// observeEvents is how many feed events the direct Observe timing of a
	// static workload uses at most.
	observeEvents = 2000
	// warmSeqBase keeps request IDs of the live warm-up reads apart from
	// the measured stream's.
	warmSeqBase = int64(1) << 41
	// maxOpsPerSecond sizes the measured window's sample log: several
	// times the fastest workload's rate on a 2-vCPU VM (dashboard-hot,
	// ~28k ops/s).
	maxOpsPerSecond = 100_000
)

// pass is one boot-load-check cycle of a workload.
type pass struct {
	w      *workload
	seed   int64
	traced bool
	conns  int

	gen, build, ready, setup []float64
	digest                   string

	rec *recorder
	// slices are the measured window's parts of load.
	slices []slice
	pr     *prober
	// setupProbes are taken around the set-ups, windowProbes before and
	// after every slice of the measured window.
	setupProbes, windowProbes []time.Duration
	heap                      uint64
	// m0 and m1 are /metrics scrapes at the start and end of the measured
	// window.
	m0, m1 map[string]float64
	open   *openStats

	dialed, peak int64
	tr           *tracer
	spansPath    string
	direct       directStats

	attempted, failed, checkFails int64
	problems                      []string
}

// probeWorkers is how many processors the pass's load keeps busy, and so
// how many the probe runs on (probe.go): every one of the closed loop's
// connections, and one for live-ingest, whose load takes about a third
// of a processor (cpu_ms_per_op of ~1 ms at 315 ops/s on a 2-vCPU VM).
func (p *pass) probeWorkers() int {
	if p.w.live {
		return 1
	}
	return p.conns
}

func (p *pass) label() string {
	if p.traced {
		return "traced"
	}
	return "untraced"
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// checkFailed records a correctness check made after the load; it counts
// as one failed op besides failing the run.
func (p *pass) checkFailed(format string, args ...any) {
	p.checkFails++
	p.problem(format, args...)
}

// usage is the process's user+system CPU time.
func usage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runPass(w *workload, seed int64, seconds float64, traced bool) (*pass, error) {
	p := &pass{w: w, seed: seed, traced: traced, conns: min(2, runtime.NumCPU())}
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if p.pr, err = newProber(p.probeWorkers()); err != nil {
		return nil, err
	}
	defer p.pr.close()
	var e *env
	p.setupProbes = append(p.setupProbes, p.pr.time())
	for i := 0; i < setupRuns; i++ {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		next, err := bootEnv(w, seed, tr, filepath.Join(dir, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			if e != nil {
				e.shutdown()
			}
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		p.gen, p.ready = append(p.gen, next.genS), append(p.ready, next.readyS)
		if !w.live {
			p.build = append(p.build, next.storeS)
		}
		p.setup = append(p.setup, next.setupS())
		p.setupProbes = append(p.setupProbes, p.pr.time())
		if e != nil {
			if err := e.shutdown(); err != nil {
				p.problem("lifecycle after set-up %d: %v", i-1, err)
			}
		}
		e, p.tr = next, tr
	}

	lc, err := newLoadClient(e.base, p.conns, seed, traced)
	if err != nil {
		e.shutdown()
		return nil, err
	}
	dur := time.Duration(seconds * float64(time.Second))
	if w.live {
		err = p.driveLive(e, lc, dur)
	} else {
		err = p.driveStatic(e, lc, dur)
	}
	lc.close()
	p.dialed, p.peak = lc.dialer.n.Load(), lc.peak.Load()
	if err != nil {
		e.shutdown()
		return nil, err
	}
	if err := e.shutdown(); err != nil {
		p.problem("lifecycle: %v", err)
	}
	if traced {
		p.tr.addClientSpans(p.rec.samples)
		p.tr.attachWAL()
		if p.spansPath, err = p.tr.write(fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)); err != nil {
			return nil, err
		}
	}
	p.finish()
	return p, nil
}

// slice is one part of the measured window: the readings before and after
// its load.
type slice struct{ a, b reading }

// measure runs the measured window as slices parts of load, each of
// dur/slices and each between two probes, and then records the live heap.
// The samples go to an off-heap log, so the heap figure does not follow
// the throughput.
func (p *pass) measure(dur time.Duration, load func(k int, d time.Duration)) error {
	var err error
	if p.rec, err = newRecorder(int(dur.Seconds()*maxOpsPerSecond) + 1); err != nil {
		return err
	}
	p.windowProbes = append(p.windowProbes, p.pr.time())
	for k := 0; k < slices; k++ {
		a := read()
		load(k, dur/slices)
		b := read()
		p.slices = append(p.slices, slice{a, b})
		p.windowProbes = append(p.windowProbes, p.pr.time())
	}
	p.heap = liveHeap()
	return nil
}

// driveStatic runs a static workload: warm-up, then the measured
// closed-loop window, checking every answer.
func (p *pass) driveStatic(e *env, lc *loadClient, dur time.Duration) error {
	s, err := newStream(p.w, e.ds, p.seed)
	if err != nil {
		return err
	}
	again, err := newStream(p.w, e.ds, p.seed)
	if err != nil {
		return err
	}
	p.digest = s.digest(1 << 14)
	if d := again.digest(1 << 14); d != p.digest {
		p.problem("op stream is not deterministic: digests %s and %s for seed %d", p.digest, d, p.seed)
	}
	var check checker
	var sampler *condSampler
	if s.hot != nil {
		h := &hotAnswers{first: make([]atomic.Pointer[[]byte], len(s.hot))}
		check = h.check
	} else {
		sampler = &condSampler{seed: p.seed}
		check = sampler.check(s.keys)
	}
	var seq atomic.Int64
	f := &feed{start: time.Now()}
	warm := &recorder{}
	closedLoop(lc, p.conns, f.start.Add(warmup), &seq, s, f, check, warm)
	f.hold()
	for _, msg := range warm.bad {
		p.problem("warm-up: %s", msg)
	}
	if p.m0, err = e.scrape(); err != nil {
		return err
	}
	if err := p.measure(dur, func(_ int, d time.Duration) {
		f.resume()
		closedLoop(lc, p.conns, time.Now().Add(d), &seq, s, f, check, p.rec)
		f.hold()
	}); err != nil {
		return err
	}
	if p.m1, err = e.scrape(); err != nil {
		return err
	}

	if got, want := int64(p.m1["hpcserve_events_accepted_total"]-p.m0["hpcserve_events_accepted_total"]), p.rec.events; got != want {
		p.checkFailed("event feed: server accepted %d events, benchmark sent %d", got, want)
	}

	snap := e.st.Snapshot()
	if sampler != nil {
		for _, err := range sampler.verify(snap) {
			p.checkFailed("%v", err)
		}
	}
	if p.traced {
		var reads []op
		for i := int64(0); i < 4096; i++ {
			reads = append(reads, s.op(i))
		}
		// The engine behind a frozen server holds only the feed's events,
		// which no read looks at; the direct calls use a fresh one over the
		// same table, and time Observe on the feed's events.
		engine, err := risk.FromAnalyzer(snap.Analyzer(), trace.Day)
		if err != nil {
			return err
		}
		if p.direct, err = measureDirect(snap, reads, engine); err != nil {
			return err
		}
		p.direct.observeUs = timeBudget(observeEvents, func(i int) { engine.Observe(s.feedEvent(int64(i))) })
	}
	return err
}

// driveLive runs live-ingest: warm-up reads, the open-loop replay, then
// the ingest checks against a twin engine fed the same events directly.
func (p *pass) driveLive(e *env, lc *loadClient, dur time.Duration) error {
	// Prime each read route once (miners and connections start lazily)
	// with reads the schedule itself would send.
	fresh, err := replay.NewSchedule(e.ds, liveOptions(p.seed))
	if err != nil {
		return err
	}
	var ops []op
	primed := map[string]bool{}
	for ro, ok := fresh.Next(); ok; ro, ok = fresh.Next() {
		o := op{seq: int64(ro.Seq), route: routeLabel(ro.Route), method: ro.Method, path: ro.Path, events: ro.Events, key: -1}
		ops = append(ops, o)
		if o.method == http.MethodGet && !primed[o.route] {
			primed[o.route] = true
			o.seq = warmSeqBase + int64(len(primed))
			warm := &recorder{}
			issue(context.Background(), lc, readerLane, &o, nil, warm, time.Now())
			for _, msg := range warm.bad {
				p.problem("warm-up: %s", msg)
			}
		}
	}
	if p.m0, err = e.scrape(); err != nil {
		return err
	}
	plan, open := planOpen(dur, e.sched)
	p.open = open
	if err := p.measure(dur, func(k int, _ time.Duration) {
		sendOpen(lc, plan[k*len(plan)/slices:(k+1)*len(plan)/slices], open, p.rec)
	}); err != nil {
		return err
	}
	// The served state is read first, before the maintenance tick can
	// decay it.
	body, err := e.get("/v1/snapshot")
	if err != nil {
		return err
	}
	since := time.Since(e.started)
	fmt.Fprintf(os.Stderr, "perfbench: snapshot read %.1fs after server start\n", since.Seconds())
	if since >= decayTick {
		return fmt.Errorf("the snapshot was read %.1fs after the server started, past its %v maintenance tick, which decays the replayed events; measure fewer seconds", since.Seconds(), decayTick)
	}
	if p.m1, err = e.scrape(); err != nil {
		return err
	}
	for _, ok := e.sched.Next(); ok; _, ok = e.sched.Next() {
	}
	p.digest = e.sched.Digest()
	if d := fresh.Digest(); d != p.digest {
		p.problem("op stream is not deterministic: digests %s and %s for seed %d", p.digest, d, p.seed)
	}

	// The benchmark's twin store over the boot dataset, built after the
	// measured window and the heap reading. Its build time is the
	// store.build_s estimate: the server builds its shard stores inside
	// server.ready_s.
	start := time.Now()
	st, err := store.New(e.boot)
	if err != nil {
		return err
	}
	p.build = []float64{time.Since(start).Seconds()}

	// Ingest checks: every event sent was accepted, and the served engine
	// state equals a risk engine fed the same events directly.
	if got, want := int64(p.m1["hpcserve_events_accepted_total"]), p.open.eventsSent; got != want {
		p.checkFailed("server accepted %d events, benchmark sent %d", got, want)
	}
	twin, err := risk.FromAnalyzer(st.Snapshot().Analyzer(), trace.Day)
	if err != nil {
		return err
	}
	// The twin takes the events in stream order. On traced passes each
	// Observe is timed, and each risk read is timed at its place in the
	// stream, where the twin holds the live events the server held.
	tail := e.ds.Failures[len(e.boot.Failures):][:p.open.eventsSent]
	var batches [][]trace.Failure
	var reads []op
	var observe, topk, score callTimer
	for _, o := range ops[:p.open.dispatched] {
		if o.method == http.MethodPost {
			batch := make([]trace.Failure, o.events)
			for i, f := range tail[:o.events] {
				batch[i] = wireFailure(f)
				start := time.Now()
				if err := twin.Observe(batch[i]); err != nil {
					p.problem("twin engine rejected an event: %v", err)
				}
				observe.add(start)
			}
			tail = tail[o.events:]
			batches = append(batches, batch)
			continue
		}
		reads = append(reads, o)
		if p.traced && (o.route == routeRiskTop || o.route == routeRiskNode) {
			start := time.Now()
			riskCall(twin, o)
			if o.route == routeRiskTop {
				topk.add(start)
			} else {
				score.add(start)
			}
		}
	}
	if err := snapshotMatches(body, twin); err != nil {
		p.checkFailed("%v", err)
	}
	if !p.traced {
		return nil
	}
	// The twin store takes the run's batches as POSTed, each one timed;
	// the other direct layer calls then run on its final snapshot.
	var appends callTimer
	for i, b := range batches {
		start := time.Now()
		if _, err := st.Append(b); err != nil {
			p.problem("twin store rejected batch %d: %v", i, err)
		}
		appends.add(start)
	}
	p.direct, err = measureDirect(st.Snapshot(), reads, nil)
	p.direct.appendUs = appends.meanUs()
	p.direct.observeUs, p.direct.topkUs, p.direct.scoreUs = observe.meanUs(), topk.meanUs(), score.meanUs()
	return err
}

// callTimer accumulates the count and total time of repeated calls.
type callTimer struct {
	n     int
	total time.Duration
}

func (s *callTimer) add(start time.Time) {
	s.n++
	s.total += time.Since(start)
}

func (s callTimer) meanUs() float64 { return ratio(float64(s.total.Nanoseconds())/1e3, float64(s.n)) }

// finish totals attempts and failures and applies the load-discipline and
// workload-purpose checks.
func (p *pass) finish() {
	all := p.rec.samples
	p.attempted, p.failed = int64(len(all)), p.checkFails
	for _, s := range all {
		if !s.ok {
			p.failed++
		}
	}
	for _, msg := range p.rec.bad {
		p.problem("%s", msg)
	}
	if p.rec.dropped > 0 {
		p.attempted += p.rec.dropped
		p.failed += p.rec.dropped
		p.problem("%d samples did not fit the sample log of %d", p.rec.dropped, cap(p.rec.samples))
	}
	if p.dialed > int64(p.conns) {
		p.problem("load client dialed %d connections, cap is %d", p.dialed, p.conns)
	}
	if p.peak > int64(p.conns) {
		p.problem("%d requests were in flight at once, cap is %d", p.peak, p.conns)
	}
	if err := p.w.guard(p.layers()); err != nil {
		p.problem("workload guard: %v", err)
	}
}

// latencies returns sorted latencies in ms of reads or writes, divided by
// the host's slowdown slow; a failed op counts as missing every latency
// limit, so it sorts last.
func latencies(samples []sample, write bool, slow float64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.write != write {
			continue
		}
		v := float64(s.lat) / float64(time.Millisecond) / slow
		if !s.ok {
			v = 1e9
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// endToEnd computes the end-to-end metrics, every timing at the reference
// speed (probe.go). Throughput, CPU and allocation are computed per slice
// of the measured window and reported as the median over slices; the
// latency medians are taken over the whole window. On the open loop the
// throughput is the offered rate, which the host's speed does not set, so
// it is not scaled. The p99s are not among them (tails).
func (p *pass) endToEnd() map[string]metric {
	slow := slowdown(p.windowProbes)
	var ops, cpu, alloc []float64
	for _, sl := range p.slices {
		a, b := sl.a, sl.b
		n, ok := 0, 0
		for _, s := range p.rec.samples {
			if s.end >= a.at.UnixNano() && s.end <= b.at.UnixNano() {
				n++
				if s.ok {
					ok++
				}
			}
		}
		rate := float64(ok) / b.at.Sub(a.at).Seconds()
		if p.open == nil {
			rate *= slow
		}
		ops = append(ops, rate)
		cpu = append(cpu, ratio(float64(b.cpu-a.cpu)/float64(time.Millisecond), float64(n))/slow)
		alloc = append(alloc, ratio(float64(b.alloc-a.alloc)/1024, float64(n)))
	}
	reads, writes := latencies(p.rec.samples, false, slow), latencies(p.rec.samples, true, slow)
	return map[string]metric{
		"setup_s":         {median(p.setup) / slowdown(p.setupProbes), "s"},
		"ops_per_s":       {median(ops), "1/s"},
		"read_p50_ms":     {quantile(reads, 0.5), "ms"},
		"write_p50_ms":    {quantile(writes, 0.5), "ms"},
		"cpu_ms_per_op":   {median(cpu), "ms"},
		"alloc_kb_per_op": {median(alloc), "KiB"},
		"heap_mb":         {float64(p.heap) / (1 << 20), "MiB"},
		"success_ratio":   {1 - ratio(float64(p.failed), float64(p.attempted)), "ratio"},
	}
}

// count is how many reads or writes the measured window logged.
func (p *pass) count(write bool) int {
	n := 0
	for _, s := range p.rec.samples {
		if s.write == write {
			n++
		}
	}
	return n
}

// probeList renders probe times in ms.
func probeList(ps []time.Duration) string {
	var b strings.Builder
	for i, d := range ps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f", float64(d)/float64(time.Millisecond))
	}
	return b.String()
}

// minTail is the fewest samples of a kind each slice needs for tail to
// take its p99 per slice: ten lie beyond it.
const minTail = 1000

// tails are the p99 read and write latencies of the measured window at the
// reference speed. They are reported with the per-layer metrics, not as
// end-to-end metrics: on a shared 2-vCPU VM they spread up to 0.25 (closed
// loops) and 0.94 (live-ingest) of their median between runs, where every
// bound is at most 0.25 (README.md).
func (p *pass) tails() (read, write float64) {
	slow := slowdown(p.windowProbes)
	return p.tail(false, slow), p.tail(true, slow)
}

// tail is the p99 of reads or writes: the median of the slices' p99s when
// every slice holds at least minTail samples of the kind, so that a slice
// a pause of the host disturbed does not move it, and otherwise the p99
// of the whole window.
func (p *pass) tail(write bool, slow float64) float64 {
	var per []float64
	for _, sl := range p.slices {
		var in []sample
		for _, s := range p.rec.samples {
			if s.end >= sl.a.at.UnixNano() && s.end <= sl.b.at.UnixNano() {
				in = append(in, s)
			}
		}
		lat := latencies(in, write, slow)
		if len(lat) < minTail {
			return quantile(latencies(p.rec.samples, write, slow), 0.99)
		}
		per = append(per, quantile(lat, 0.99))
	}
	return median(per)
}

// report prints the pass's run record to standard error.
func (p *pass) report() {
	m := p.endToEnd()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s pass: digest=%s conns=%d dialed=%d peak_inflight=%d reads=%d writes=%d attempted=%d failed=%d\n",
		p.label(), p.digest, p.conns, p.dialed, p.peak, p.count(false), p.count(true), p.attempted, p.failed)
	fmt.Fprintf(os.Stderr, "perfbench:   set-up probes ms: %s\n", probeList(p.setupProbes))
	fmt.Fprintf(os.Stderr, "perfbench:   window probes ms: %s\n", probeList(p.windowProbes))
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   %-16s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	r99, w99 := p.tails()
	fmt.Fprintf(os.Stderr, "perfbench:   %-16s %12.4f ms\n", "read_p99", r99)
	fmt.Fprintf(os.Stderr, "perfbench:   %-16s %12.4f ms\n", "write_p99", w99)
	if p.open != nil {
		fmt.Fprintf(os.Stderr, "perfbench:   generator: %d ops dispatched, %d late sends, max lag %.2f ms\n",
			p.open.dispatched, p.open.lateSends, float64(p.open.maxSendLag)/float64(time.Millisecond))
	}
}
