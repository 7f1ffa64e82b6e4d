package analysis

import (
	"context"
	"math"
	"sync"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Scope selects the spatial granularity of a conditional-probability
// question, matching the paper's three levels.
type Scope int

const (
	// ScopeNode asks about follow-up failures of the same node.
	ScopeNode Scope = iota + 1
	// ScopeRack asks about failures of the other nodes in the anchor
	// node's rack (systems with layouts only).
	ScopeRack
	// ScopeSystem asks about failures of the other nodes in the anchor
	// node's system.
	ScopeSystem
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeNode:
		return "node"
	case ScopeRack:
		return "rack"
	case ScopeSystem:
		return "system"
	default:
		return "scope(?)"
	}
}

// CondResult is one conditional-vs-baseline probability comparison — the
// unit of every bar in Figures 1, 2, 3, 10, 11 and 13.
type CondResult struct {
	// Window is the look-ahead window length.
	Window time.Duration
	// Scope is the spatial granularity.
	Scope Scope
	// Conditional is P(target event in window | anchor event), estimated
	// over all anchors.
	Conditional stats.Proportion
	// Baseline is P(target event in a random window for a random node).
	Baseline stats.Proportion
	// CondCI and BaseCI are 95% Wilson intervals.
	CondCI stats.Interval
	BaseCI stats.Interval
	// FactorCI is a 95% delta-method interval for the conditional-over-
	// baseline ratio (NaN bounds when either side has no successes).
	FactorCI stats.Interval
	// Test is the two-sample z-test of conditional vs baseline.
	Test stats.TestResult
}

// Factor returns the increase of the conditional over the baseline (the
// "NX" annotations of the paper's figures).
func (r CondResult) Factor() float64 { return r.Conditional.FactorOver(r.Baseline) }

// Significant reports whether the conditional differs from the baseline at
// level alpha.
func (r CondResult) Significant(alpha float64) bool { return r.Test.Significant(alpha) }

// finishCond fills the derived fields of a CondResult.
func finishCond(r *CondResult) {
	r.CondCI = r.Conditional.WilsonCI(0.95)
	r.BaseCI = r.Baseline.WilsonCI(0.95)
	r.FactorCI = stats.RatioCI(r.Conditional, r.Baseline, 0.95)
	if r.Conditional.Valid() && r.Baseline.Valid() {
		if t, err := stats.TwoProportionZTest(r.Conditional, r.Baseline); err == nil {
			r.Test = t
		} else {
			r.Test = stats.TestResult{Stat: math.NaN(), P: math.NaN()}
		}
	} else {
		r.Test = stats.TestResult{Stat: math.NaN(), P: math.NaN()}
	}
}

// BaselineNodeProb estimates the probability that a random node of the
// given systems experiences at least one failure matching pred within a
// random window of length w: each system's measurement period is cut into
// consecutive windows and every (node, window) cell is one trial. It
// answers from the dataset index; BaselineNodeProbNaive is the reference
// scan it must agree with.
func (a *Analyzer) BaselineNodeProb(systems []trace.SystemInfo, w time.Duration, pred trace.Pred) stats.Proportion {
	if a.didx == nil {
		return a.BaselineNodeProbNaive(systems, w, pred)
	}
	sc := a.didx.scratch(systems)
	defer scratchPool.Put(sc)
	return a.baselineFromIndex(systems, w, pred, sc)
}

// baselineFromIndex is BaselineNodeProb over a caller-provided scratch, so
// CondProbCtx can share one scratch between the baseline and the sweep. One
// pass over each system's target posting list marks (node, window) cells:
// events arrive in time order, so one remembered window per node slot
// deduplicates them.
func (a *Analyzer) baselineFromIndex(systems []trace.SystemInfo, w time.Duration, pred trace.Pred, sc *sweepScratch) stats.Proportion {
	cls, fil := routePred(pred)
	successes, trials := 0, 0
	for _, s := range systems {
		nw := int(s.Period.Duration() / w)
		if nw <= 0 {
			continue
		}
		trials += nw * s.Nodes
		si := a.didx.system(s.ID)
		if si == nil {
			continue
		}
		sc.next()
		start := s.Period.Start.UnixNano()
		for _, p := range si.byClass[cls] {
			if fil != nil && !fil.Match(si.fails[p]) {
				continue
			}
			wi := (si.ns[p] - start) / int64(w)
			if wi < 0 || wi >= int64(nw) {
				continue
			}
			if v, ok := sc.get(si.node[p]); !ok || v != wi {
				sc.set(si.node[p], wi)
				successes++
			}
		}
	}
	return stats.Proportion{Successes: successes, Trials: trials}
}

// BaselineNodeProbNaive is the reference implementation of
// BaselineNodeProb: a full scan with map-based cell deduplication. It is
// retained for differential tests and benchmarks against the indexed path.
func (a *Analyzer) BaselineNodeProbNaive(systems []trace.SystemInfo, w time.Duration, pred trace.Pred) stats.Proportion {
	successes, trials := 0, 0
	for _, s := range systems {
		nw := int(s.Period.Duration() / w)
		if nw <= 0 {
			continue
		}
		trials += nw * s.Nodes
		// Mark (node, window) cells with a matching failure.
		type cell struct{ node, win int }
		seen := make(map[cell]bool)
		for _, f := range a.Index.SystemFailures(s.ID) {
			if !pred.Match(f) {
				continue
			}
			wi := int(f.Time.Sub(s.Period.Start) / w)
			if wi < 0 || wi >= nw {
				continue
			}
			c := cell{f.Node, wi}
			if !seen[c] {
				seen[c] = true
				successes++
			}
		}
	}
	return stats.Proportion{Successes: successes, Trials: trials}
}

// CondProb estimates P(target in the w-window after an anchor | anchor) at
// the given scope over the given systems, against the matching baseline:
//
//   - ScopeNode: for each failure matching anchorPred, success when the
//     same node has a later failure matching targetPred within w. Baseline:
//     BaselineNodeProb(targetPred).
//   - ScopeRack: every (anchor, rack-mate) pair is a trial; success when
//     that rack-mate fails within w. Same baseline — the paper compares the
//     per-node probability against the random-week probability.
//   - ScopeSystem: every (anchor, other-node) pair is a trial.
//
// Systems without layouts contribute no rack-scope trials.
func (a *Analyzer) CondProb(systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) CondResult {
	res, _ := a.CondProbCtx(context.Background(), systems, anchorPred, targetPred, w, scope)
	return res
}

// CondProbCtx is CondProb with cooperative cancellation: the scan checks ctx
// once per system and every 1024 anchors, and returns ctx.Err() with a
// partial (unfinished) result as soon as the context is done. This is the
// hot loop of every figure, so it is the cancellation point for the whole
// experiment suite.
//
// It answers from the dataset index with one sweep per system over the
// anchor and target posting lists (anchors clipped to the period by one
// binary search): a backward merge for node and rack scope, a forward
// sliding window for system scope, O(anchors + targets) either way.
// CondProbNaiveCtx is the reference scan the sweep must agree with bit for
// bit.
func (a *Analyzer) CondProbCtx(ctx context.Context, systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) (CondResult, error) {
	if a.didx == nil {
		return a.CondProbNaiveCtx(ctx, systems, anchorPred, targetPred, w, scope)
	}
	res := CondResult{Window: w, Scope: scope}
	sc := a.didx.scratch(systems)
	defer scratchPool.Put(sc)
	res.Baseline = a.baselineFromIndex(systems, w, targetPred, sc)

	aCls, aFil := routePred(anchorPred)
	tCls, tFil := routePred(targetPred)
	k := sweep{ctx: ctx, sc: sc, w: int64(w), aFil: aFil, tFil: tFil}
	for _, s := range systems {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if scope == ScopeRack && a.DS.Layouts[s.ID] == nil {
			continue
		}
		si := a.didx.system(s.ID)
		if si == nil {
			continue
		}
		// Clip anchors whose window would extend past the measurement
		// period, so truncated exposure does not dilute the estimate.
		anchors := si.byClass[aCls]
		anchors = anchors[:upperBound(si.ns, anchors, s.Period.End.UnixNano()-k.w)]
		targets := si.byClass[tCls]
		sc.next()
		var err error
		switch scope {
		case ScopeNode, ScopeRack:
			err = k.merge(si, anchors, targets, scope == ScopeRack)
		case ScopeSystem:
			err = k.window(si, anchors, targets, s.Nodes-1)
		}
		res.Conditional = k.cond
		if err != nil {
			return res, err
		}
	}
	finishCond(&res)
	return res, nil
}

// sweep is the state of one CondProbCtx call's per-system sweeps: the
// window length in nanoseconds, the residual filters of opaque predicates
// (nil for class-routed ones), the shared scratch, the cancellation cadence
// and the conditional's running counts.
type sweep struct {
	ctx        context.Context
	sc         *sweepScratch
	w          int64
	aFil, tFil trace.Pred
	anchors    int
	cond       stats.Proportion
}

// tick counts one visited anchor and checks ctx every 1024.
func (k *sweep) tick() error {
	k.anchors++
	if k.anchors%1024 == 0 {
		return k.ctx.Err()
	}
	return nil
}

// merge answers node and rack scope for one system in one backward merge of
// the anchor and target posting lists. Walking anchors newest first, it
// admits every target strictly after the current anchor, so the scratch
// holds next[n], the earliest such target time of each node slot. An anchor
// at t then succeeds at node scope iff next[node] < t+w, and each rack-mate
// m with next[m] < t+w is one rack-scope success. Opaque predicates filter
// anchors as they are visited and targets as they are admitted.
func (k *sweep) merge(si *systemIndex, anchors, targets []int32, rack bool) error {
	j := len(targets) - 1
	for i := len(anchors) - 1; i >= 0; i-- {
		if err := k.tick(); err != nil {
			return err
		}
		p := anchors[i]
		if k.aFil != nil && !k.aFil.Match(si.fails[p]) {
			continue
		}
		t := si.ns[p]
		for ; j >= 0 && si.ns[targets[j]] > t; j-- {
			q := targets[j]
			if k.tFil == nil || k.tFil.Match(si.fails[q]) {
				k.sc.set(si.node[q], si.ns[q])
			}
		}
		end := t + k.w
		if !rack {
			k.cond.Trials++
			if next, ok := k.sc.get(si.node[p]); ok && next < end {
				k.cond.Successes++
			}
			continue
		}
		mates := si.lay.matesOf(si.node[p])
		k.cond.Trials += len(mates)
		for _, m := range mates {
			if next, ok := k.sc.get(m); ok && next < end {
				k.cond.Successes++
			}
		}
	}
	return nil
}

// window answers system scope for one system with a forward two-pointer
// window (t, t+w) over the target posting list: the scratch holds each node
// slot's target count inside the window and distinct the number of slots
// with a nonzero count, so an anchor's successes are distinct minus its own
// node when that node is in the window. others is the per-anchor trial
// count (the system's node count minus the anchor). Opaque predicates
// filter anchors as they are visited and targets as they enter and leave
// the window.
func (k *sweep) window(si *systemIndex, anchors, targets []int32, others int) error {
	lo, hi, distinct := 0, 0, 0
	for _, p := range anchors {
		if err := k.tick(); err != nil {
			return err
		}
		if k.aFil != nil && !k.aFil.Match(si.fails[p]) {
			continue
		}
		t := si.ns[p]
		end := t + k.w
		for ; hi < len(targets) && si.ns[targets[hi]] < end; hi++ {
			q := targets[hi]
			if k.tFil == nil || k.tFil.Match(si.fails[q]) {
				if k.sc.add(si.node[q], 1) == 1 {
					distinct++
				}
			}
		}
		for ; lo < hi && si.ns[targets[lo]] <= t; lo++ {
			q := targets[lo]
			if k.tFil == nil || k.tFil.Match(si.fails[q]) {
				if k.sc.add(si.node[q], -1) == 0 {
					distinct--
				}
			}
		}
		k.cond.Trials += others
		k.cond.Successes += distinct
		if n, _ := k.sc.get(si.node[p]); n > 0 {
			k.cond.Successes--
		}
	}
	return nil
}

// sweepScratch is the per-call state of the sweep kernel and the baseline:
// one epoch-stamped int64 cell per node slot (a next-target time, a window
// count or a window index). A cell is live only while its stamp equals the
// current epoch, so starting a system's pass is one increment, not a clear.
// Scratches are pooled; one serves one call at a time.
type sweepScratch struct {
	stamp []uint64
	val   []int64
	epoch uint64
}

var scratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// scratch returns a pooled scratch with a cell for every node slot of the
// queried systems. Callers return it to scratchPool when done.
func (x *DatasetIndex) scratch(systems []trace.SystemInfo) *sweepScratch {
	n := 0
	for _, s := range systems {
		if si := x.system(s.ID); si != nil && si.nslots > n {
			n = si.nslots
		}
	}
	sc := scratchPool.Get().(*sweepScratch)
	if len(sc.stamp) < n {
		sc.stamp = make([]uint64, n)
		sc.val = make([]int64, n)
	}
	return sc
}

// next opens a fresh pass; every cell becomes stale.
func (sc *sweepScratch) next() { sc.epoch++ }

// get returns the slot's cell, and whether it was set in this pass.
func (sc *sweepScratch) get(s int32) (int64, bool) {
	if sc.stamp[s] != sc.epoch {
		return 0, false
	}
	return sc.val[s], true
}

// set stores v in the slot's cell for this pass.
func (sc *sweepScratch) set(s int32, v int64) {
	sc.stamp[s] = sc.epoch
	sc.val[s] = v
}

// add adds d to the slot's cell (zero when stale) and returns the sum.
func (sc *sweepScratch) add(s int32, d int64) int64 {
	v, _ := sc.get(s)
	v += d
	sc.set(s, v)
	return v
}

// CondProbNaive is CondProbNaiveCtx without cancellation.
func (a *Analyzer) CondProbNaive(systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) CondResult {
	res, _ := a.CondProbNaiveCtx(context.Background(), systems, anchorPred, targetPred, w, scope)
	return res
}

// CondProbNaiveCtx is the reference implementation of CondProbCtx: a full
// scan of every system's failures with per-anchor index probes. It is
// retained for differential tests and benchmarks against the indexed path
// and must stay semantically frozen.
func (a *Analyzer) CondProbNaiveCtx(ctx context.Context, systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) (CondResult, error) {
	res := CondResult{Window: w, Scope: scope}
	res.Baseline = a.BaselineNodeProbNaive(systems, w, targetPred)

	scanned := 0
	for _, s := range systems {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		lay := a.DS.Layouts[s.ID]
		if scope == ScopeRack && lay == nil {
			continue
		}
		for _, f := range a.Index.SystemFailures(s.ID) {
			scanned++
			if scanned%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return res, err
				}
			}
			if !anchorPred.Match(f) {
				continue
			}
			// Clip windows that would extend past the measurement period,
			// so truncated exposure does not dilute the estimate.
			end := f.Time.Add(w)
			if end.After(s.Period.End) {
				continue
			}
			iv := trace.Interval{Start: f.Time.Add(time.Nanosecond), End: end}
			switch scope {
			case ScopeNode:
				res.Conditional.Trials++
				if a.Index.NodeAny(s.ID, f.Node, iv, targetPred) {
					res.Conditional.Successes++
				}
			case ScopeRack:
				mates := lay.RackMates(f.Node)
				for _, m := range mates {
					res.Conditional.Trials++
					if a.Index.NodeAny(s.ID, m, iv, targetPred) {
						res.Conditional.Successes++
					}
				}
			case ScopeSystem:
				// Count distinct other nodes with a matching failure in
				// the window by scanning the window once.
				res.Conditional.Trials += s.Nodes - 1
				res.Conditional.Successes += a.distinctOtherNodes(s.ID, f.Node, iv, targetPred)
			}
		}
	}
	finishCond(&res)
	return res, nil
}

// distinctOtherNodes counts distinct nodes (excluding exclude) with at
// least one failure matching pred in iv.
func (a *Analyzer) distinctOtherNodes(system, exclude int, iv trace.Interval, pred trace.Pred) int {
	seen := make(map[int]bool)
	for _, f := range a.windowFailures(system, iv) {
		if f.Node == exclude || seen[f.Node] {
			continue
		}
		if pred.Match(f) {
			seen[f.Node] = true
		}
	}
	return len(seen)
}

// windowFailures returns the failures of a system inside iv, using the
// index's binary search.
func (a *Analyzer) windowFailures(system int, iv trace.Interval) []trace.Failure {
	all := a.Index.SystemFailures(system)
	lo := searchTime(all, iv.Start)
	hi := searchTime(all, iv.End)
	return all[lo:hi]
}

func searchTime(fs []trace.Failure, t time.Time) int {
	lo, hi := 0, len(fs)
	for lo < hi {
		mid := (lo + hi) / 2
		if fs[mid].Time.Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FollowUp is a labelled CondResult, one bar of a figure.
type FollowUp struct {
	Label string
	CondResult
}

// FollowUpByType computes, for every anchor category, the probability that
// the target (any failure by default) follows within w at the given scope —
// Figure 1a (ScopeNode), Figure 2a (ScopeRack) and Figure 3 (ScopeSystem).
func (a *Analyzer) FollowUpByType(systems []trace.SystemInfo, w time.Duration, scope Scope) []FollowUp {
	type bar struct {
		label string
		pred  trace.Pred
	}
	bars := make([]bar, 0, len(trace.FigureOrder)+2)
	for _, c := range trace.FigureOrder {
		bars = append(bars, bar{c.String(), trace.CategoryPred(c)})
	}
	// Memory and CPU hardware anchors (the right-most bars of the paper's
	// figures).
	for _, hw := range []trace.HWComponent{trace.Memory, trace.CPU} {
		bars = append(bars, bar{"HW/" + hw.String(), trace.HWPred(hw)})
	}
	out := make([]FollowUp, len(bars))
	Shared().ForEach(len(bars), func(i int) {
		out[i] = FollowUp{Label: bars[i].label, CondResult: a.CondProb(systems, bars[i].pred, nil, w, scope)}
	})
	return out
}

// PairwiseResult holds the three bars of one Figure 1b / 2b group for a
// target type Y: the probability of a Y failure after any failure, after a
// failure of the same type, and in a random window.
type PairwiseResult struct {
	Label     string
	AfterAny  CondResult
	AfterSame CondResult
}

// PairwiseByType computes the same-type and any-type conditionals for every
// category (plus Memory and CPU), at the given scope and window — Figures
// 1b and 2b.
func (a *Analyzer) PairwiseByType(systems []trace.SystemInfo, w time.Duration, scope Scope) []PairwiseResult {
	type group struct {
		label  string
		target trace.Pred
	}
	groups := make([]group, 0, len(trace.FigureOrder)+2)
	for _, c := range trace.FigureOrder {
		groups = append(groups, group{c.String(), trace.CategoryPred(c)})
	}
	for _, hw := range []trace.HWComponent{trace.Memory, trace.CPU} {
		groups = append(groups, group{"HW/" + hw.String(), trace.HWPred(hw)})
	}
	out := make([]PairwiseResult, len(groups))
	Shared().ForEach(len(groups), func(i int) {
		g := groups[i]
		out[i] = PairwiseResult{
			Label:     g.label,
			AfterAny:  a.CondProb(systems, nil, g.target, w, scope),
			AfterSame: a.CondProb(systems, g.target, g.target, w, scope),
		}
	})
	return out
}

// PairMatrix computes the full pairwise conditional probability matrix
// p(x, y) = P(type-y failure within w after a type-x failure) at ScopeNode,
// the quantity behind Section III.A.3. Rows and columns follow
// trace.Categories order.
func (a *Analyzer) PairMatrix(systems []trace.SystemInfo, w time.Duration) [][]CondResult {
	n := len(trace.Categories)
	out := make([][]CondResult, n)
	for i := range out {
		out[i] = make([]CondResult, n)
	}
	Shared().ForEach(n*n, func(k int) {
		i, j := k/n, k%n
		out[i][j] = a.CondProb(systems, trace.CategoryPred(trace.Categories[i]), trace.CategoryPred(trace.Categories[j]), w, ScopeNode)
	})
	return out
}
