package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/client"
	"github.com/hpcfail/hpcfail/internal/replay"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// catalogSeed fixes the generated failure catalog. The --seed flag varies
// the request stream a workload sends, not the size or shape of the dataset
// the server holds, so runs with different seeds measure the same server.
const catalogSeed = 1

// Route labels, as the metrics name them.
const (
	routeCondProb     = "condprob"
	routeRiskTop      = "risk_top"
	routeRiskNode     = "risk_node"
	routeCorrelations = "correlations"
	routeAnomalies    = "anomalies"
	routeEvents       = "events"
)

// routes lists every labelled route in metric order.
var routes = []string{routeCondProb, routeRiskTop, routeRiskNode, routeCorrelations, routeAnomalies, routeEvents}

// routeLabel maps a replay route pattern to its metric label.
func routeLabel(pattern string) string {
	switch pattern {
	case replay.RouteCondProb:
		return routeCondProb
	case replay.RouteRiskTop:
		return routeRiskTop
	case replay.RouteRiskNode:
		return routeRiskNode
	case replay.RouteCorrelations:
		return routeCorrelations
	case replay.RouteAnomalies:
		return routeAnomalies
	case replay.RouteEvents:
		return routeEvents
	}
	return ""
}

// routeOfPath classifies a request path the way the server's mux routes it.
func routeOfPath(path string) string {
	switch {
	case path == "/v1/condprob":
		return routeCondProb
	case path == "/v1/risk/top":
		return routeRiskTop
	case strings.HasPrefix(path, "/v1/risk/"):
		return routeRiskNode
	case path == "/v1/correlations":
		return routeCorrelations
	case path == "/v1/anomalies":
		return routeAnomalies
	case path == "/v1/events":
		return routeEvents
	}
	return ""
}

// workload is one named traffic mix against one server configuration.
type workload struct {
	name string
	// catalog and hazard select the generated dataset (replay.GenerateCatalog).
	catalog string
	hazard  float64
	// live selects the writes-beside-reads server: two shards with per-shard
	// WALs, a non-frozen dataset, and an open-loop replay of the trace tail.
	// Otherwise the server boots the whole catalog frozen (hpcserve's default
	// serving mode) and takes closed-loop reads.
	live bool
	// hotSet, on a static workload, draws every read from this many distinct
	// replay-generated queries; 0 draws condprob keys uniformly from the
	// whole query space instead.
	hotSet int
	// guard checks the property the workload exists to exercise; a run that
	// no longer has it fails instead of silently measuring something else.
	guard func(l *layerStats) error
}

// Live-ingest schedule: the trace tail after the split replayed as event
// batches, reads weighted toward risk. The replay generator draws reads per
// event; with 15-minute batch windows a batch carries 1.26 events on
// average, so 0.2 reads per event is one read per four writes (6,309
// writes, ~1,580 reads).
const (
	liveHazard        = 16
	liveSplit         = 0.8
	liveReadsPerWrite = 0.2
	liveBatchWindow   = 15 * time.Minute
	// liveRate is the live-ingest send rate in ops per second: the
	// schedule's ~7,900 ops last just over 25 s, the longest run. The
	// reader has one read in flight at a time; at one read per write and
	// 250 or 500 ops/s it fell behind often enough on a busy host that
	// queueing set the p99s, which then spread up to 0.8 and 2.3 of their
	// median between runs (README.md). Fewer reads keep the reader far
	// from that, and the many writes put the write p99 in the bulk of the
	// WAL's fsync times rather than in their tail. The schedule's virtual
	// times order the ops; send times are evenly spaced.
	liveRate = 315
	// liveMaxSeconds bounds a live-ingest run. The server's maintenance
	// tick, decayTick after it starts, decays its engine against the wall
	// clock, which drops every replayed event (their trace times are years
	// old), and the snapshot check would then fail.
	liveMaxSeconds = 25
	decayTick      = 30 * time.Second
)

// liveOptions is the live-ingest schedule for a seed.
func liveOptions(seed int64) replay.ScheduleOptions {
	return replay.ScheduleOptions{
		Seed: seed, Split: liveSplit, ReadsPerWrite: liveReadsPerWrite, BatchWindow: liveBatchWindow, Mix: liveMix,
	}
}

var liveMix = replay.Mix{RiskTop: 3, RiskNode: 3, CondProb: 1, Correlations: 1, Anomalies: 1}

var workloads = map[string]*workload{
	"condprob-sweep": {
		name: "condprob-sweep", catalog: replay.CatalogStandard, hazard: 1,
		guard: func(l *layerStats) error {
			if l.cacheHitRatio > 0.6 {
				return fmt.Errorf("cache hit ratio %.3f > 0.6: the sweep no longer misses the result cache", l.cacheHitRatio)
			}
			if l.traced && l.condprobShare < 0.3 {
				return fmt.Errorf("kernel share %.3f of condprob handler time < 0.3: the sweep no longer exercises analysis", l.condprobShare)
			}
			return nil
		},
	},
	"dashboard-hot": {
		name: "dashboard-hot", catalog: replay.CatalogStandard, hazard: 1, hotSet: 50,
		guard: func(l *layerStats) error {
			if l.cacheHitRatio < 0.95 {
				return fmt.Errorf("cache hit ratio %.3f < 0.95: the hot set no longer stays cached", l.cacheHitRatio)
			}
			return nil
		},
	},
	"live-ingest": {
		name: "live-ingest", catalog: replay.CatalogSmall, hazard: liveHazard, live: true,
		guard: func(l *layerStats) error {
			if l.eventsAccepted == 0 || l.storeAppends == 0 {
				return fmt.Errorf("no events reached the store (accepted %d, appends %d)", l.eventsAccepted, l.storeAppends)
			}
			if l.cacheHitRatio > 0.5 {
				return fmt.Errorf("cache hit ratio %.3f > 0.5: writes no longer invalidate analytic answers", l.cacheHitRatio)
			}
			if l.traced && l.walWrites == 0 {
				return fmt.Errorf("no WAL writes: the write path is not durable")
			}
			return nil
		},
	},
}

// workloadNames lists the workloads in a stable order for messages.
var workloadNames = []string{"condprob-sweep", "dashboard-hot", "live-ingest"}

// op is one request the benchmark sends.
type op struct {
	seq    int64
	route  string
	method string
	path   string
	body   []byte
	// events is how many failure events a write carries.
	events int
	// key indexes the op's query in the workload's key table (condprob keys
	// or hot-set entries); -1 when none.
	key int
	// due is the op's intended send time after the start of the window
	// (open loop only).
	due time.Duration
}

// mix64 is SplitMix64's finalizer: a cheap, well-spread hash that turns
// (seed, sequence number) into a draw, so any op of a closed-loop stream is
// computable on its own and the stream is identical for equal seeds however
// the connections interleave.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed int64, seq int64, salt uint64) uint64 {
	return mix64(uint64(seed)*0x100000001b3 ^ uint64(seq) ^ salt<<56)
}

// condKey is one point of the condprob query space.
type condKey struct {
	anchor, target, scope, window string
	group                         int
}

func (k condKey) path() string {
	p := fmt.Sprintf("/v1/condprob?anchor=%s&scope=%s&target=%s&window=%s", k.anchor, k.scope, k.target, k.window)
	if k.group != 0 {
		p += fmt.Sprintf("&group=%d", k.group)
	}
	return p
}

// condKeys enumerates the replay generator's condprob query space: anchor ×
// target × scope × window × group, 9·5·3·3·3 = 1,215 keys, far more than
// the server's 256-entry result cache.
func condKeys() []condKey {
	anchors := []string{"", "HW", "SW", "ENV", "NET", "HW/Memory", "HW/CPU", "SW/OS", "ENV/PowerOutage"}
	targets := []string{"", "HW", "SW", "NET", "HW/Memory"}
	scopes := []string{"node", "rack", "system"}
	windows := []string{"day", "week", "month"}
	var out []condKey
	for _, a := range anchors {
		for _, t := range targets {
			for _, s := range scopes {
				for _, w := range windows {
					for g := 0; g <= 2; g++ {
						out = append(out, condKey{anchor: a, target: t, scope: s, window: w, group: g})
					}
				}
			}
		}
	}
	return out
}

// feedSeqBase numbers the event feed's writes apart from the reads, so
// that request IDs stay unique on traced runs.
const feedSeqBase = int64(1) << 40

// feedRate is the static workloads' event feed in writes per wall second.
// It is set by what the write latencies need, not taken from traffic:
// about 6,000 writes in a 25 s window, sixty beyond the write p99. That is
// about 5% of condprob-sweep's ops and 1.5% of dashboard-hot's.
const feedRate = 240.0

// feed paces the static workloads' event feed: write k is due (k+1)/feedRate
// seconds after start, and the closed-loop workers send each due write
// in place of their next read, so the feed adds no connection or
// in-flight request.
type feed struct {
	start time.Time
	held  time.Time
	sent  atomic.Int64
}

// hold stops the feed's clock while no load runs, and resume restarts it,
// so that a pause between slices leaves no writes due at once.
func (f *feed) hold()   { f.held = time.Now() }
func (f *feed) resume() { f.start = f.start.Add(time.Since(f.held)) }

// claim returns the index of the next due feed write, if one is due.
func (f *feed) claim() (int64, bool) {
	due := int64(time.Since(f.start).Seconds() * feedRate)
	for {
		k := f.sent.Load()
		if k >= due {
			return 0, false
		}
		if f.sent.CompareAndSwap(k, k+1) {
			return k, true
		}
	}
}

// stream is a closed-loop op stream: op(seq) and feedOp(k) are pure
// functions of the seed and the sequence number or feed index.
type stream struct {
	seed    int64
	keys    []condKey // condprob-sweep
	hot     []op      // dashboard-hot
	systems []trace.SystemInfo
	end     time.Time // the catalog's end
}

func newStream(w *workload, ds *trace.Dataset, seed int64) (*stream, error) {
	s := &stream{seed: seed, systems: ds.Systems}
	for _, sys := range ds.Systems {
		if sys.Period.End.After(s.end) {
			s.end = sys.Period.End
		}
	}
	if w.hotSet == 0 {
		s.keys = condKeys()
		return s, nil
	}
	// The hot set is the first reads of a replay schedule over the same
	// catalog, with the generator's own query shapes, pinned to trace time
	// so every answer is deterministic. It holds each route in proportion
	// to the default mix (risk top 3, risk node 3, condprob 2, correlations
	// 1, anomalies 1). The set is the same for every seed, which only
	// orders the polls, so that seeds do not change the panel mix.
	sched, err := replay.NewSchedule(ds, replay.ScheduleOptions{Seed: catalogSeed, ReadsPerWrite: 10})
	if err != nil {
		return nil, err
	}
	quota := map[string]int{
		routeRiskTop: w.hotSet * 3 / 10, routeRiskNode: w.hotSet * 3 / 10, routeCondProb: w.hotSet * 2 / 10,
		routeCorrelations: w.hotSet / 10, routeAnomalies: w.hotSet / 10,
	}
	for len(s.hot) < w.hotSet {
		o, ok := sched.Next()
		if !ok {
			return nil, fmt.Errorf("replay schedule ran out after %d hot reads", len(s.hot))
		}
		r := routeLabel(o.Route)
		if o.Method != "GET" || quota[r] == 0 {
			continue
		}
		quota[r]--
		s.hot = append(s.hot, op{route: r, method: "GET", path: o.Path, key: len(s.hot)})
	}
	return s, nil
}

func (s *stream) op(seq int64) op {
	if s.hot != nil {
		o := s.hot[draw(s.seed, seq, 1)%uint64(len(s.hot))]
		o.seq = seq
		return o
	}
	k := int(draw(s.seed, seq, 1) % uint64(len(s.keys)))
	return op{seq: seq, route: routeCondProb, method: "GET", path: s.keys[k].path(), key: k}
}

// feedOp is the k-th write of the event feed: one event per POST.
func (s *stream) feedOp(k int64) op {
	return op{seq: feedSeqBase + k, route: routeEvents, method: "POST", path: "/v1/events", events: 1, key: -1,
		body: writeEvents([]client.Event{wireEvent(s.feedEvent(k))})}
}

// digest hashes the first n reads and the first n feed writes of the
// stream (route, path, body) with the seed, so two runs with equal digests
// sent identical request streams.
func (s *stream) digest(n int64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d", s.seed)
	for i := int64(0); i < n; i++ {
		for _, o := range []op{s.op(i), s.feedOp(i)} {
			fmt.Fprintf(h, "|%d|%s|%s|", o.seq, o.route, o.path)
			h.Write(o.body)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// feedEvent is the event of the feed write with index i: a seeded
// category on a seeded node, timed within a day after the catalog's end,
// later than every read's pinned time.
func (s *stream) feedEvent(i int64) trace.Failure {
	sys := s.systems[draw(s.seed, i, 2)%uint64(len(s.systems))]
	cat := trace.Categories[draw(s.seed, i, 3)%uint64(len(trace.Categories))]
	at := s.end.Add(time.Second + time.Duration(draw(s.seed, i, 4)%86400)*time.Second)
	return trace.Failure{System: sys.ID, Node: int(draw(s.seed, i, 5) % uint64(sys.Nodes)), Time: at.UTC(), Category: cat}
}
