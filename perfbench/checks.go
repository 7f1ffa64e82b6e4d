package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/client"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// hotAnswers holds the first answer of every hot-set query; every later
// answer to the same query must be byte-identical to it (dashboard-hot).
type hotAnswers struct {
	first []atomic.Pointer[[]byte]
}

func (h *hotAnswers) check(o *op, res client.Result) error {
	if o.key < 0 {
		return nil // a feed write
	}
	slot := &h.first[o.key]
	body := res.Body
	if slot.CompareAndSwap(nil, &body) {
		return nil
	}
	if first := *slot.Load(); !bytes.Equal(first, body) {
		return fmt.Errorf("GET %s: answer differs from the first answer to the same query", o.path)
	}
	return nil
}

// condSampler keeps a seeded sample of condprob answers for verification
// against the analysis kernel once the run is over, so the oracle does not
// compete with the server for CPU while it is being measured.
type condSampler struct {
	seed int64
	mu   sync.Mutex
	got  []sampledAnswer
}

type sampledAnswer struct {
	key  condKey
	body []byte
}

// condSampleEvery samples one condprob answer in this many, up to
// condSampleMax answers per run.
const (
	condSampleEvery = 32
	condSampleMax   = 400
)

func (c *condSampler) check(keys []condKey) checker {
	return func(o *op, res client.Result) error {
		if o.key < 0 || draw(c.seed, o.seq, 6)%condSampleEvery != 0 {
			return nil
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.got) < condSampleMax {
			c.got = append(c.got, sampledAnswer{key: keys[o.key], body: res.Body})
		}
		return nil
	}
}

// condWire mirrors the computed fields of the /v1/condprob response body.
type condWire struct {
	DatasetVersion uint64   `json:"dataset_version"`
	Conditional    propWire `json:"conditional"`
	Baseline       propWire `json:"baseline"`
	Factor         float64  `json:"factor"`
	FactorLo       float64  `json:"factor_lo"`
	FactorHi       float64  `json:"factor_hi"`
	PValue         float64  `json:"p_value"`
	Significant    bool     `json:"significant_5pct"`
}

type propWire struct {
	P         float64 `json:"p"`
	Successes int     `json:"successes"`
	Trials    int     `json:"trials"`
	CILo      float64 `json:"ci_lo"`
	CIHi      float64 `json:"ci_hi"`
}

// sameFloat compares a wire value with the kernel's, NaN-aware: JSON cannot
// carry NaN or ±Inf, so the wire encodes NaN as 0 and ±Inf as ±MaxFloat64.
// Finite values must match bit for bit.
func sameFloat(wire, want float64) bool {
	switch {
	case math.IsNaN(want):
		return wire == 0
	case math.IsInf(want, 1):
		return wire == math.MaxFloat64
	case math.IsInf(want, -1):
		return wire == -math.MaxFloat64
	}
	return wire == want
}

func sameProp(w propWire, p stats.Proportion, ci stats.Interval) bool {
	return w.Successes == p.Successes && w.Trials == p.Trials && sameFloat(w.P, p.P()) && sameFloat(w.CILo, ci.Lo) && sameFloat(w.CIHi, ci.Hi)
}

// verify recomputes every sampled answer with Analyzer.CondProb on the
// pinned snapshot and compares it field by field.
func (c *condSampler) verify(snap *store.Snapshot) []error {
	var errs []error
	for _, s := range c.got {
		var w condWire
		if err := json.Unmarshal(s.body, &w); err != nil {
			errs = append(errs, fmt.Errorf("condprob %s: undecodable answer: %v", s.key.path(), err))
			continue
		}
		q, err := parseCondPath(s.key.path())
		if err != nil {
			errs = append(errs, err)
			continue
		}
		r := snap.Analyzer().CondProb(q.systems(snap.Dataset()), q.anchor, q.target, q.window, q.scope)
		ok := w.DatasetVersion == snap.Version() &&
			sameProp(w.Conditional, r.Conditional, r.CondCI) && sameProp(w.Baseline, r.Baseline, r.BaseCI) &&
			sameFloat(w.Factor, r.Factor()) && sameFloat(w.FactorLo, r.FactorCI.Lo) && sameFloat(w.FactorHi, r.FactorCI.Hi) &&
			sameFloat(w.PValue, r.Test.P) && w.Significant == r.Significant(0.05)
		if !ok {
			errs = append(errs, fmt.Errorf("condprob %s: served answer differs from analysis.CondProb on the same snapshot", s.key.path()))
		}
	}
	return errs
}

// condQuery is a parsed /v1/condprob query for direct kernel calls.
type condQuery struct {
	anchor, target trace.Pred
	window         time.Duration
	scope          analysis.Scope
	group          int
}

func (q condQuery) systems(ds *trace.Dataset) []trace.SystemInfo {
	switch q.group {
	case 1:
		return ds.GroupSystems(trace.Group1)
	case 2:
		return ds.GroupSystems(trace.Group2)
	}
	return ds.Systems
}

// parseCondPath parses the condprob paths the benchmark generates. It
// accepts only the labels the generators emit.
func parseCondPath(path string) (condQuery, error) {
	q := condQuery{window: trace.Week, scope: analysis.ScopeNode}
	u, err := url.Parse(path)
	if err != nil {
		return q, err
	}
	for k, vs := range u.Query() {
		v := vs[0]
		switch k {
		case "anchor":
			q.anchor, err = predOf(v)
		case "target":
			q.target, err = predOf(v)
		case "window":
			q.window, err = windowOf(v)
		case "scope":
			switch v {
			case "node":
				q.scope = analysis.ScopeNode
			case "rack":
				q.scope = analysis.ScopeRack
			case "system":
				q.scope = analysis.ScopeSystem
			default:
				err = fmt.Errorf("unknown scope %q", v)
			}
		case "group":
			q.group, err = strconv.Atoi(v)
		}
		if err != nil {
			return q, fmt.Errorf("condprob path %s: %v", path, err)
		}
	}
	return q, nil
}

func windowOf(v string) (time.Duration, error) {
	switch v {
	case "day":
		return trace.Day, nil
	case "week":
		return trace.Week, nil
	case "month":
		return trace.Month, nil
	}
	return 0, fmt.Errorf("unknown window %q", v)
}

// predOf resolves an event label (CATEGORY or CATEGORY/subtype) to its
// predicate; "" is any failure.
func predOf(label string) (trace.Pred, error) {
	if label == "" {
		return nil, nil
	}
	catLabel, sub, refined := strings.Cut(label, "/")
	cat, err := trace.ParseCategory(catLabel)
	if err != nil {
		return nil, err
	}
	if !refined {
		return trace.CategoryPred(cat), nil
	}
	switch cat {
	case trace.Hardware:
		c, err := trace.ParseHWComponent(sub)
		return trace.HWPred(c), err
	case trace.Software:
		c, err := trace.ParseSWClass(sub)
		return trace.SWPred(c), err
	case trace.Environment:
		c, err := trace.ParseEnvClass(sub)
		return trace.EnvPred(c), err
	}
	return nil, fmt.Errorf("category %s has no subtypes", cat)
}

// wireFailure is f as the server sees it after a JSON round trip: only the
// fields an event on the wire carries.
func wireFailure(f trace.Failure) trace.Failure {
	return trace.Failure{System: f.System, Node: f.Node, Time: f.Time, Category: f.Category, HW: f.HW, SW: f.SW, Env: f.Env}
}

// snapshotMatches compares the server's /v1/snapshot body with the
// canonical rendering of the twin engine's state.
func snapshotMatches(body []byte, twin *risk.Engine) error {
	want, err := json.MarshalIndent(risk.SnapshotJSON(twin.Snapshot()), "", "  ")
	if err != nil {
		return err
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		return fmt.Errorf("/v1/snapshot (%d bytes) differs from a risk engine fed the same events directly (%d bytes)", len(body), len(want))
	}
	return nil
}
