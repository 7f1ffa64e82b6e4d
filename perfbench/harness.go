package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/hpcfail/hpcfail/internal/client"
	"github.com/hpcfail/hpcfail/internal/replay"
	"github.com/hpcfail/hpcfail/internal/server"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// shutdownLimit is how long ServeListener may take to return once its
// context is cancelled: the server's own 5s shutdown grace plus a second.
const shutdownLimit = 6 * time.Second

// reqIDHeader carries the benchmark's per-op request ID on traced runs; the
// tracing middleware reads it to join server spans to client spans.
const reqIDHeader = "X-Request-Id"

// env is one booted in-process server and the inputs it was built from.
type env struct {
	ds    *trace.Dataset // the generated catalog
	boot  *trace.Dataset // what the server boots with
	sched *replay.Schedule
	// st is the server's own store on static workloads. The sharded
	// live-ingest server builds its stores internally; st is nil there.
	st   *store.Store
	base string

	stop context.CancelFunc
	done chan error
	logs *logSink
	// started is when ServeListener was called; the server's maintenance
	// tick fires decayTick after it at the earliest.
	started time.Time

	genS, storeS, readyS float64
}

// logSink collects the server's lifecycle log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) grep(sub string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			out = append(out, s)
		}
	}
	return out
}

// bootEnv generates the workload's inputs and boots a server over them,
// timing the set-up stages; it returns once /readyz answers 200. Building
// the live-ingest schedule is not server set-up and is not timed.
func bootEnv(w *workload, seed int64, tr *tracer, walDir string) (*env, error) {
	e := &env{logs: &logSink{}}
	t0 := time.Now()
	ds, err := replay.GenerateCatalog(w.catalog, catalogSeed, w.hazard)
	if err != nil {
		return nil, err
	}
	e.genS = time.Since(t0).Seconds()
	e.ds, e.boot = ds, ds

	cfg := server.Config{Window: trace.Day, Logf: e.logs.logf}
	if w.live {
		if e.sched, err = replay.NewSchedule(ds, liveOptions(seed)); err != nil {
			return nil, err
		}
		e.boot = e.sched.BootDataset()
		cfg.Dataset = e.boot
		cfg.Shards = 2
		cfg.ShardWAL = wal.Options{Dir: walDir, Policy: wal.SyncInterval, Interval: wal.DefaultInterval}
	} else {
		t1 := time.Now()
		if e.st, err = store.New(e.boot); err != nil {
			return nil, err
		}
		e.storeS = time.Since(t1).Seconds()
		cfg.Store = e.st
		cfg.FrozenDataset = true
	}
	if tr != nil {
		cfg.Middleware = tr.middleware
		if w.live {
			cfg.ShardWAL.FS = tr.fs
		}
	}
	t2 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	e.stop, e.done = cancel, make(chan error, 1)
	e.started = time.Now()
	go func() { e.done <- server.ServeListener(ctx, ln, cfg) }()
	if err := e.waitReady(); err != nil {
		cancel()
		<-e.done
		return nil, err
	}
	e.readyS = time.Since(t2).Seconds()
	return e, nil
}

// setupS is the timed set-up: catalog generation, the static store build,
// and server start until /readyz is 200 (which holds the live-ingest
// server's own store builds).
func (e *env) setupS() float64 { return e.genS + e.storeS + e.readyS }

// waitReady polls /readyz until it answers 200.
func (e *env) waitReady() error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-e.done:
			return fmt.Errorf("server exited during start-up: %v", err)
		default:
		}
		resp, err := hc.Get(e.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 60s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown cancels the server and applies the lifecycle check:
// ServeListener must return nil within its grace period, and the server
// must not have logged giving up on in-flight requests.
func (e *env) shutdown() error {
	e.stop()
	select {
	case err := <-e.done:
		if err != nil {
			return fmt.Errorf("ServeListener returned %v", err)
		}
	case <-time.After(shutdownLimit):
		return fmt.Errorf("ServeListener did not return within %v of cancellation", shutdownLimit)
	}
	if lines := e.logs.grep("gave up"); len(lines) > 0 {
		return fmt.Errorf("shutdown overran its grace period: %s", lines[0])
	}
	return nil
}

// side is a plain HTTP client for the benchmark's own requests (metrics
// scrapes, snapshots); it never shares connections with the load client.
var side = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}

func (e *env) get(path string) ([]byte, error) {
	resp, err := side.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// scrape reads the unlabelled (default dataset) series of /metrics.
func (e *env) scrape() (map[string]float64, error) {
	body, err := e.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// countingDialer counts the connections the load client opens.
type countingDialer struct {
	d net.Dialer
	n atomic.Int64
}

func (c *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c.n.Add(1)
	return c.d.DialContext(ctx, network, addr)
}

// loadClient is the resilient API client with retries off, one lane per
// sender, and counters that prove the caps held. Each lane is a client with
// its own single connection, so a sender always reuses its own connection:
// with one shared pool, the server closed a connection left idle for 5 s
// by a light open loop, and the load client dialed a third.
type loadClient struct {
	lanes    []*client.Client
	trs      []*http.Transport
	dialer   *countingDialer
	inflight atomic.Int64
	peak     atomic.Int64
	traced   bool
}

func newLoadClient(base string, conns int, seed int64, traced bool) (*loadClient, error) {
	lc := &loadClient{dialer: &countingDialer{}, traced: traced}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{
			DialContext:         lc.dialer.DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		c, err := client.New(client.Config{
			BaseURL:    base,
			HTTP:       &http.Client{Transport: tr, Timeout: 30 * time.Second},
			MaxRetries: -1,
			// Lanes draw distinct idempotency keys.
			Seed: int64(mix64(uint64(seed)<<8 + uint64(i))),
		})
		if err != nil {
			return nil, err
		}
		lc.lanes, lc.trs = append(lc.lanes, c), append(lc.trs, tr)
	}
	return lc, nil
}

func (lc *loadClient) close() {
	for _, tr := range lc.trs {
		tr.CloseIdleConnections()
	}
}

func (lc *loadClient) do(ctx context.Context, lane int, o *op) (client.Result, error) {
	n := lc.inflight.Add(1)
	defer lc.inflight.Add(-1)
	for p := lc.peak.Load(); n > p && !lc.peak.CompareAndSwap(p, n); p = lc.peak.Load() {
	}
	c := lc.lanes[lane%len(lc.lanes)]
	var hdr map[string]string
	if o.method == http.MethodPost {
		hdr = map[string]string{"Content-Type": "application/json", "X-Idempotency-Key": c.NewIdempotencyKey()}
	}
	if lc.traced {
		if hdr == nil {
			hdr = map[string]string{}
		}
		hdr[reqIDHeader] = strconv.FormatInt(o.seq, 10)
	}
	return c.DoResult(ctx, o.method, o.path, o.body, hdr)
}

// sample is one completed op. It holds no pointers, so that a run's log of
// them can live outside the Go heap (see newRecorder).
type sample struct {
	seq   int64
	write bool
	ok    bool // 2xx, not partial, passed its check
	// start and end are Unix nanoseconds of the actual send and completion.
	start, end int64
	// lat is completion minus send time; on the open loop, when the op
	// waited for its sender, the send time is the op's intended send, which
	// corrects for coordinated omission.
	lat time.Duration
}

// checker inspects one response; it returns an error for a wrong answer.
type checker func(o *op, res client.Result) error

// recorder gathers samples and the first few check failures.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	// offHeap marks a sample log of fixed capacity outside the Go heap;
	// samples that do not fit are counted in dropped.
	offHeap bool
	dropped int64
	bad     []string
	events  int64 // events carried by successful writes
}

// newRecorder returns a recorder whose sample log holds up to n samples in
// anonymous memory outside the Go heap. A measured window logs up to
// hundreds of thousands of samples; on the heap, the growing log would
// grow the heap that the collector paces the in-process server's
// collections against, so that the faster the host ran, the rarer the
// server's collections became. The log is never unmapped: its samples are
// read until the process exits.
func newRecorder(n int) (*recorder, error) {
	size := n * int(unsafe.Sizeof(sample{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample log of %d samples: %w", n, err)
	}
	return &recorder{samples: unsafe.Slice((*sample)(unsafe.Pointer(unsafe.SliceData(mem))), n)[:0], offHeap: true}, nil
}

func (r *recorder) add(s sample, events int, checkErr error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offHeap && len(r.samples) == cap(r.samples) {
		r.dropped++
		return
	}
	r.samples = append(r.samples, s)
	if s.ok && s.write {
		r.events += int64(events)
	}
	if checkErr != nil && len(r.bad) < 5 {
		r.bad = append(r.bad, checkErr.Error())
	}
}

// issue runs one op and classifies it: transport errors, non-2xx answers,
// X-Partial answers and failed checks all count as failures. Its latency
// is timed from sent; it returns the completion time.
func issue(ctx context.Context, lc *loadClient, lane int, o *op, check checker, rec *recorder, sent time.Time) time.Time {
	start := time.Now()
	res, err := lc.do(ctx, lane, o)
	end := time.Now()
	s := sample{seq: o.seq, write: o.method == http.MethodPost, start: start.UnixNano(), end: end.UnixNano(), lat: end.Sub(sent)}
	var cerr error
	switch {
	case err != nil && res.Status == 0:
		cerr = fmt.Errorf("%s %s: %v", o.method, o.path, err)
	case res.Status/100 != 2:
		cerr = fmt.Errorf("%s %s: status %d: %s", o.method, o.path, res.Status, strings.TrimSpace(string(res.Body)))
	case res.Header.Get("X-Partial") == "true":
		cerr = fmt.Errorf("%s %s: partial answer", o.method, o.path)
	case check != nil:
		cerr = check(o, res)
	}
	s.ok = cerr == nil
	rec.add(s, o.events, cerr)
	return end
}

// closedLoop runs conns workers, each sending its next op only after the
// previous one completed, until the deadline. Reads are numbered from
// *seq; a due write of the event feed goes first. Every latency is timed
// from the actual send.
func closedLoop(lc *loadClient, conns int, deadline time.Time, seq *atomic.Int64, s *stream, f *feed, check checker, rec *recorder) {
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var o op
				if k, ok := f.claim(); ok {
					o = s.feedOp(k)
				} else {
					o = s.op(seq.Add(1) - 1)
				}
				issue(context.Background(), lc, lane, &o, check, rec, time.Now())
			}
		}(i)
	}
	wg.Wait()
}

// lateSendThreshold matches the replay runner's: a dispatch more than 5ms
// past its intended time counts as late.
const lateSendThreshold = 5 * time.Millisecond

// The open loop's senders and their lanes. With one processor both share
// the one lane (loadClient.do).
const (
	feederLane = 0
	readerLane = 1
)

// openStats is the generator's own health on an open-loop run.
type openStats struct {
	dispatched int64
	lateSends  int64
	maxSendLag time.Duration
	eventsSent int64
}

// planOpen takes the schedule's ops for dur of wall time at liveRate:
// op i is due i/liveRate seconds into the window. Send times are evenly
// spaced rather than taken from the trace: the trace's own bursts made the
// p99 vary several-fold from run to run, which no bound could hold.
func planOpen(dur time.Duration, sched *replay.Schedule) ([]op, *openStats) {
	st := &openStats{}
	var ops []op
	for i := 0; ; i++ {
		due := time.Duration(float64(i) * float64(time.Second) / liveRate)
		if due >= dur {
			break
		}
		ro, ok := sched.Next()
		if !ok {
			break
		}
		ops = append(ops, op{seq: int64(ro.Seq), route: routeLabel(ro.Route), method: ro.Method, path: ro.Path, body: ro.Body, events: ro.Events, key: -1, due: due})
		st.dispatched++
		if ro.Method == http.MethodPost {
			st.eventsSent += int64(ro.Events)
		}
	}
	return ops, st
}

// sendOpen sends a run of planned ops on their schedule, the first one at
// once, and returns when every answer is in. Send times never wait for a
// response. The load has two senders, one in-flight request each: a
// feeder that sends the event batches in order, one at a time, as a log
// shipper does, and a reader that sends the reads. A sender that is still
// waiting for its previous answer when the next op is due sends late; the
// wait is charged to the op's latency, which is then timed from its
// intended send, and to the send lag. A sender that was idle sleeps until
// the intended send and times the op from when it woke: the timer's
// wake-up lag (0.6 ms at the median on a 2-vCPU VM) belongs to the
// generator, not to the server.
func sendOpen(lc *loadClient, ops []op, st *openStats, rec *recorder) {
	if len(ops) == 0 {
		return
	}
	epoch := time.Now().Add(-ops[0].due)
	var writes, reads []op
	for _, o := range ops {
		if o.method == http.MethodPost {
			writes = append(writes, o)
		} else {
			reads = append(reads, o)
		}
	}
	var mu sync.Mutex
	send := func(lane int, ops []op) {
		var free time.Time // when the sender's previous op completed
		for i := range ops {
			o := &ops[i]
			at := epoch.Add(o.due)
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			if lag := time.Since(at); lag > lateSendThreshold {
				mu.Lock()
				st.lateSends++
				st.maxSendLag = max(st.maxSendLag, lag)
				mu.Unlock()
			}
			from := at
			if !free.After(at) {
				from = time.Now()
			}
			free = issue(context.Background(), lc, lane, o, nil, rec, from)
		}
	}
	var wg sync.WaitGroup
	for lane, ops := range map[int][]op{feederLane: writes, readerLane: reads} {
		wg.Add(1)
		go func(lane int, ops []op) {
			defer wg.Done()
			send(lane, ops)
		}(lane, ops)
	}
	wg.Wait()
}

// reading is a point-in-time CPU and allocation total.
type reading struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func read() reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{at: time.Now(), cpu: usage(), alloc: ms.TotalAlloc}
}

// writeEvents renders a POST /v1/events body.
func writeEvents(evs []client.Event) []byte {
	body, err := json.Marshal(struct {
		Events []client.Event `json:"events"`
	}{evs})
	if err != nil {
		panic(fmt.Sprintf("marshaling plain events: %v", err))
	}
	return body
}

// wireEvent converts a failure to its wire form.
func wireEvent(f trace.Failure) client.Event {
	t := f.Time
	ev := client.Event{System: f.System, Node: f.Node, Time: &t, Category: f.Category.String()}
	if f.HW != trace.HWUnknown {
		ev.HW = f.HW.String()
	}
	if f.SW != trace.SWUnknown {
		ev.SW = f.SW.String()
	}
	if f.Env != trace.EnvUnknown {
		ev.Env = f.Env.String()
	}
	return ev
}

// scratchDir makes a per-run directory under .bench_build for WAL files.
func scratchDir() (string, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "runs"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(filepath.Join(".bench_build", "runs"), "run-")
}
