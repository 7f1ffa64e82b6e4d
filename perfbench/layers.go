package main

import (
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// directBudget bounds the wall time of each kind of direct layer call.
const directBudget = 500 * time.Millisecond

// directStats are per-call costs of layer functions called directly on the
// run's inputs, outside the server.
type directStats struct {
	condprobUs, anomaliesUs, mineUs float64
	topkUs, scoreUs                 float64
	observeUs, appendUs             float64
}

// timeBudget calls call(i) for i = 0.. until n calls or the budget is
// spent, and returns the mean in microseconds (0 when n is 0).
func timeBudget(n int, call func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	k := 0
	for k < n {
		call(k)
		k++
		if time.Since(start) > directBudget {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(k)
}

// queryOf returns the parsed query string of a request path.
func queryOf(path string) url.Values {
	u, err := url.Parse(path)
	if err != nil {
		return url.Values{}
	}
	return u.Query()
}

func intParam(q url.Values, key string, def int) int {
	if v, err := strconv.Atoi(q.Get(key)); err == nil {
		return v
	}
	return def
}

func atParam(q url.Values) time.Time {
	t, _ := time.Parse(time.RFC3339, q.Get("at"))
	return t
}

// measureDirect times each layer's public entry point on the run's reads,
// pinned to snap: Analyzer.CondProb, DetectAnomalies, Miner.Mine, and,
// when engine is not nil, the risk engine's TopK and Score.
func measureDirect(snap *store.Snapshot, reads []op, engine *risk.Engine) (directStats, error) {
	var d directStats
	byRoute := map[string][]url.Values{}
	for _, o := range reads {
		byRoute[o.route] = append(byRoute[o.route], queryOf(o.path))
	}
	an, ds := snap.Analyzer(), snap.Dataset()

	var conds []condQuery
	for _, o := range reads {
		if o.route == routeCondProb {
			q, err := parseCondPath(o.path)
			if err != nil {
				return d, err
			}
			conds = append(conds, q)
		}
	}
	d.condprobUs = timeBudget(len(conds), func(i int) {
		q := conds[i]
		an.CondProb(q.systems(ds), q.anchor, q.target, q.window, q.scope)
	})

	systemsOf := func(q url.Values) []int {
		if s := intParam(q, "system", 0); s != 0 {
			return []int{s}
		}
		return nil
	}
	anoms := byRoute[routeAnomalies]
	d.anomaliesUs = timeBudget(len(anoms), func(i int) {
		correlate.DetectAnomalies(an, systemsOf(anoms[i]), intParam(anoms[i], "k", 10))
	})

	corrs := byRoute[routeCorrelations]
	if len(corrs) > 0 {
		// A miner catches up on the store once, then answers from its
		// counts; the server's miners are warm the same way.
		st, err := store.New(ds)
		if err != nil {
			return d, err
		}
		miner := correlate.NewMiner(st)
		miner.Mine(trace.Day)
		d.mineUs = timeBudget(len(corrs), func(i int) {
			w, _ := windowOf(corrs[i].Get("window"))
			miner.Mine(w, systemsOf(corrs[i])...)
		})
	}

	if engine != nil {
		var tops, nodes []op
		for _, o := range reads {
			switch o.route {
			case routeRiskTop:
				tops = append(tops, o)
			case routeRiskNode:
				nodes = append(nodes, o)
			}
		}
		d.topkUs = timeBudget(len(tops), func(i int) { riskCall(engine, tops[i]) })
		d.scoreUs = timeBudget(len(nodes), func(i int) { riskCall(engine, nodes[i]) })
	}
	return d, nil
}

// riskCall makes the engine call behind a risk read: TopK over every node
// for /v1/risk/top, as the handler does before it cuts to k, and Score for
// /v1/risk/{node}.
func riskCall(engine *risk.Engine, o op) {
	q := queryOf(o.path)
	if o.route == routeRiskTop {
		engine.TopK(0, atParam(q))
		return
	}
	node, _ := strconv.Atoi(strings.TrimPrefix(strings.SplitN(o.path, "?", 2)[0], "/v1/risk/"))
	engine.Score(intParam(q, "system", 0), node, atParam(q))
}

// layerStats are the figures the workload guards and the per-layer
// metrics read.
type layerStats struct {
	traced         bool
	cacheHitRatio  float64
	condprobShare  float64
	eventsAccepted int64
	storeAppends   int64
	walWrites      int64
	m              map[string]float64
	dominant       string
}

// layers derives the per-layer figures of the pass. Counter deltas come
// from the /metrics scrapes around the measured window; span figures exist
// on traced passes.
func (p *pass) layers() *layerStats {
	delta := func(name string) float64 { return p.m1[name] - p.m0[name] }
	hits, misses := delta("hpcserve_condprob_cache_hits_total"), delta("hpcserve_condprob_cache_misses_total")
	accepted := delta("hpcserve_events_accepted_total")
	l := &layerStats{
		traced:         p.traced,
		cacheHitRatio:  ratio(hits, hits+misses),
		eventsAccepted: int64(accepted),
		storeAppends:   int64(delta("hpcserve_store_appends_total")),
		m:              map[string]float64{},
	}
	m := l.m
	m["simulate.generate_s"] = median(p.gen)
	m["store.build_s"] = median(p.build)
	m["server.ready_s"] = median(p.ready)
	m["client.conns_dialed"] = float64(p.dialed)
	m["client.read_samples"] = float64(p.count(false))
	m["client.write_samples"] = float64(p.count(true))
	var probes []float64
	for _, d := range p.windowProbes {
		probes = append(probes, float64(d)/float64(time.Millisecond))
	}
	m["host.probe_ms"] = median(probes)
	m["server.cache_hit_ratio"] = l.cacheHitRatio
	m["server.shed_total"] = delta("hpcserve_shed_total")
	m["server.partial_total"] = delta("hpcserve_partial_responses_total")
	m["store.appends_per_event"] = ratio(delta("hpcserve_store_appends_total"), accepted)
	m["store.rebuilds"] = delta("hpcserve_store_rebuilds_total")
	m["replay.late_sends"], m["replay.max_send_lag_ms"] = 0, 0
	if p.open != nil {
		m["replay.late_sends"] = float64(p.open.lateSends)
		m["replay.max_send_lag_ms"] = float64(p.open.maxSendLag) / float64(time.Millisecond)
	}
	d := p.direct
	m["analysis.condprob_us_per_call"] = d.condprobUs
	m["correlate.anomalies_us_per_call"] = d.anomaliesUs
	m["correlate.mine_us_per_call"] = d.mineUs
	m["risk.topk_us_per_call"] = d.topkUs
	m["risk.score_us_per_call"] = d.scoreUs
	m["risk.observe_us_per_event"] = d.observeUs
	m["store.append_us_per_batch"] = d.appendUs
	if p.traced {
		p.spanLayers(l, accepted)
	}
	return l
}

// spanLayers joins the traced pass's spans by request ID and derives the
// per-route handler times, the wire time, WAL costs, each layer's self
// time and its estimated share of an op.
func (p *pass) spanLayers(l *layerStats, accepted float64) {
	m := l.m
	type opSpans struct {
		client, server span
		haveC, haveS   bool
		wal            time.Duration
	}
	byID := map[int64]*opSpans{}
	get := func(id int64) *opSpans {
		o := byID[id]
		if o == nil {
			o = &opSpans{}
			byID[id] = o
		}
		return o
	}
	var fsyncs []float64
	var walWrites, walBytes, walFsyncs float64
	for _, s := range p.tr.spans {
		switch {
		case s.Name == "client.op":
			o := get(s.ReqID)
			o.client, o.haveC = s, true
		case strings.HasPrefix(s.Name, "server."):
			o := get(s.ReqID)
			o.server, o.haveS = s, true
		case s.Name == "wal.write" || s.Name == "wal.fsync":
			if s.Name == "wal.write" {
				walWrites++
				walBytes += float64(s.Bytes)
			} else {
				walFsyncs++
				fsyncs = append(fsyncs, float64(s.dur().Nanoseconds())/1e3)
			}
			if s.Parent != "" {
				get(s.ReqID).wal += s.dur()
			}
		}
	}
	l.walWrites = int64(walWrites)
	m["wal.writes_per_event"] = ratio(walWrites, accepted)
	m["wal.bytes_per_event"] = ratio(walBytes, accepted)
	m["wal.fsyncs_per_event"] = ratio(walFsyncs, accepted)
	sort.Float64s(fsyncs)
	m["wal.fsync_us_p50"] = quantile(fsyncs, 0.5)

	handler := map[string][]float64{}
	misses := map[string]float64{}
	var nOps, clientUs, wireUs, serverUs, walUs, bytes float64
	for _, o := range byID {
		if !o.haveC || !o.haveS {
			continue
		}
		route := strings.TrimPrefix(o.server.Name, "server.")
		h := float64(o.server.dur().Nanoseconds()) / 1e3
		handler[route] = append(handler[route], h)
		if o.server.Cache == "MISS" {
			misses[route]++
		}
		nOps++
		clientUs += float64(o.client.dur().Nanoseconds()) / 1e3
		wireUs += float64((o.client.dur() - o.server.dur()).Nanoseconds()) / 1e3
		serverUs += h
		walUs += float64(o.wal.Nanoseconds()) / 1e3
		bytes += float64(o.server.Bytes)
	}
	for _, r := range routes {
		hs := handler[r]
		sort.Float64s(hs)
		m["server.handler_us."+r+".p50"] = quantile(hs, 0.5)
		m["server.handler_us."+r+".mean"] = mean(hs)
	}
	m["client.wire_us_per_op"] = ratio(wireUs, nOps)
	m["server.resp_bytes_per_op"] = ratio(bytes, nOps)
	m["self_us_per_op.wire"] = ratio(wireUs, nOps)
	m["self_us_per_op.server"] = ratio(serverUs-walUs, nOps)
	m["self_us_per_op.wal"] = ratio(walUs, nOps)

	// Layer estimates: each direct per-call cost times the calls the run
	// made into that layer. Only cache misses reach the analytic layers.
	d := p.direct
	condTotal := 0.0
	for _, h := range handler[routeCondProb] {
		condTotal += h
	}
	kernel := d.condprobUs * misses[routeCondProb]
	l.condprobShare = ratio(kernel, condTotal)
	m["analysis.condprob_share"] = l.condprobShare
	writes := float64(len(handler[routeEvents]))
	est := map[string]float64{
		"wire":      wireUs,
		"analysis":  kernel,
		"anomalies": d.anomaliesUs * misses[routeAnomalies],
		"mine":      d.mineUs * misses[routeCorrelations],
		"risk": d.topkUs*float64(len(handler[routeRiskTop])) + d.scoreUs*float64(len(handler[routeRiskNode])) +
			d.observeUs*accepted,
		"store": d.appendUs * writes,
		"wal":   walUs,
	}
	inner := 0.0
	for k, v := range est {
		if k != "wire" {
			inner += v
		}
	}
	est["server_other"] = max(serverUs-inner, 0)
	best := 0.0
	for _, k := range []string{"wire", "server_other", "analysis", "anomalies", "mine", "risk", "store", "wal"} {
		share := ratio(est[k], clientUs)
		m["layer_share."+k] = share
		if share > best {
			best, l.dominant = share, k
		}
	}
}

// perLayer assembles the traced pass's per-layer metrics, with the tracing
// overhead measured against the untraced pass plain.
func (p *pass) perLayer(plain *pass) map[string]metric {
	l := p.layers()
	out := map[string]metric{}
	for k, v := range l.m {
		out[k] = metric{v, unitOf(k)}
	}
	r99, w99 := plain.tails()
	out["client.read_p99_ms"], out["client.write_p99_ms"] = metric{r99, "ms"}, metric{w99, "ms"}
	pe, te := plain.endToEnd(), p.endToEnd()
	out["trace.overhead_cpu_pct"] = metric{100 * (ratio(te["cpu_ms_per_op"].Value, pe["cpu_ms_per_op"].Value) - 1), "%"}
	out["trace.overhead_read_p50_pct"] = metric{100 * (ratio(te["read_p50_ms"].Value, pe["read_p50_ms"].Value) - 1), "%"}
	fmt.Fprintf(os.Stderr, "perfbench: traced: dominant layer %s (%.1f%% of op time); spans in %s\n",
		l.dominant, 100*l.m["layer_share."+l.dominant], p.spansPath)
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   %-36s %14.4f %s\n", k, out[k].Value, out[k].Unit)
	}
	return out
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us") || strings.HasPrefix(name, "server.handler_us.") || strings.HasPrefix(name, "self_us_per_op."):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.Contains(name, "ratio") || strings.Contains(name, "share"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}
