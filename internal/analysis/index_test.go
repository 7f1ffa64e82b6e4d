package analysis

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/faultinject"
	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// anchorClasses are the eight anchor classes of the paper's figures (and of
// the risk engine's lift table): the six categories plus the two hardware
// leaves broken out separately.
func anchorClasses() []struct {
	label string
	pred  trace.Pred
} {
	out := []struct {
		label string
		pred  trace.Pred
	}{}
	for _, c := range trace.FigureOrder {
		out = append(out, struct {
			label string
			pred  trace.Pred
		}{c.String(), trace.CategoryPred(c)})
	}
	for _, hw := range []trace.HWComponent{trace.Memory, trace.CPU} {
		out = append(out, struct {
			label string
			pred  trace.Pred
		}{"HW/" + hw.String(), trace.HWPred(hw)})
	}
	return out
}

func floatEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// requireCondEqual fails the test unless the two results are bit-identical
// (NaN compares equal to NaN: derived stats of empty cells are NaN on both
// sides).
func requireCondEqual(t *testing.T, label string, got, want CondResult) {
	t.Helper()
	if got.Window != want.Window || got.Scope != want.Scope {
		t.Fatalf("%s: metadata differs: got %v/%v want %v/%v", label, got.Window, got.Scope, want.Window, want.Scope)
	}
	if got.Conditional != want.Conditional {
		t.Errorf("%s: conditional %+v, naive %+v", label, got.Conditional, want.Conditional)
	}
	if got.Baseline != want.Baseline {
		t.Errorf("%s: baseline %+v, naive %+v", label, got.Baseline, want.Baseline)
	}
	pairs := []struct {
		name   string
		gv, wv float64
	}{
		{"CondCI.Lo", got.CondCI.Lo, want.CondCI.Lo},
		{"CondCI.Hi", got.CondCI.Hi, want.CondCI.Hi},
		{"BaseCI.Lo", got.BaseCI.Lo, want.BaseCI.Lo},
		{"BaseCI.Hi", got.BaseCI.Hi, want.BaseCI.Hi},
		{"FactorCI.Lo", got.FactorCI.Lo, want.FactorCI.Lo},
		{"FactorCI.Hi", got.FactorCI.Hi, want.FactorCI.Hi},
		{"Test.Stat", got.Test.Stat, want.Test.Stat},
		{"Test.P", got.Test.P, want.Test.P},
	}
	for _, p := range pairs {
		if !floatEq(p.gv, p.wv) {
			t.Errorf("%s: %s = %v, naive %v", label, p.name, p.gv, p.wv)
		}
	}
}

// diffCondProb runs the full differential sweep over one dataset: all eight
// anchor classes x three scopes, plus match-all and opaque predicates, at
// two window lengths.
func diffCondProb(t *testing.T, ds *trace.Dataset) {
	t.Helper()
	a := New(ds)
	scopes := []Scope{ScopeNode, ScopeRack, ScopeSystem}
	windows := []time.Duration{trace.Day, trace.Week}
	for _, anchor := range anchorClasses() {
		for _, scope := range scopes {
			for _, w := range windows {
				got := a.CondProb(ds.Systems, anchor.pred, nil, w, scope)
				want := a.CondProbNaive(ds.Systems, anchor.pred, nil, w, scope)
				requireCondEqual(t, anchor.label+"/"+scope.String()+"/"+trace.WindowName(w), got, want)
			}
		}
	}
	// Match-all anchor and target, same-type pairs, and opaque predicates
	// (which bypass the posting-list fast path).
	hw := trace.CategoryPred(trace.Hardware)
	weekend := trace.PredOf(func(f trace.Failure) bool {
		return f.Time.Weekday() == time.Saturday || f.Time.Weekday() == time.Sunday
	})
	extra := []struct {
		label          string
		anchor, target trace.Pred
	}{
		{"any-any", nil, nil},
		{"hw-hw", hw, hw},
		{"any-hw", nil, hw},
		{"opaque-anchor", weekend, nil},
		{"opaque-target", hw, weekend},
		{"opaque-both", weekend, weekend},
	}
	for _, c := range extra {
		for _, scope := range scopes {
			got := a.CondProb(ds.Systems, c.anchor, c.target, trace.Week, scope)
			want := a.CondProbNaive(ds.Systems, c.anchor, c.target, trace.Week, scope)
			requireCondEqual(t, c.label+"/"+scope.String(), got, want)
		}
	}
	diffServedGrid(t, a)
}

func TestIndexedCondProbMatchesNaive(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	diffCondProb(t, ds)
}

func TestIndexedCondProbMatchesNaiveEdgeDatasets(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		diffCondProb(t, craft(nil))
	})
	t.Run("single-event", func(t *testing.T) {
		diffCondProb(t, craft([]trace.Failure{hwAt(0, 10)}))
	})
	t.Run("all-same-timestamp", func(t *testing.T) {
		fs := []trace.Failure{hwAt(0, 10), swAt(1, 10), hwAt(2, 10), swAt(3, 10), hwAt(0, 10)}
		diffCondProb(t, craft(fs))
	})
	t.Run("no-layout", func(t *testing.T) {
		ds := craft([]trace.Failure{hwAt(0, 10), hwAt(1, 11), swAt(2, 12)})
		delete(ds.Layouts, 1)
		diffCondProb(t, ds)
	})
}

// TestIndexedCondProbMatchesNaiveCorrupted pins the differential property
// across the corruption pipeline: a dataset corrupted on disk and re-loaded
// under the lenient and repair policies must give identical indexed and
// naive answers.
func TestIndexedCondProbMatchesNaiveCorrupted(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := faultinject.CorruptDataset(dir, ds, faultinject.Spec{Seed: 11, Rate: 0.3}); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []struct {
		name string
		p    validate.Policy
	}{
		{"lenient", validate.DefaultPolicy()},
		{"repair", validate.RepairPolicy()},
	} {
		t.Run(policy.name, func(t *testing.T) {
			got, _, err := trace.LoadDirWith(dir, policy.p)
			if err != nil {
				t.Fatal(err)
			}
			diffCondProb(t, got)
		})
	}
}

// TestDatasetIndexConcurrentReads hammers one shared analyzer from many
// goroutines; run under -race it proves query evaluation never mutates the
// index.
func TestDatasetIndexConcurrentReads(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 9, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a := New(ds)
	want := a.CondProb(ds.Systems, trace.CategoryPred(trace.Hardware), nil, trace.Week, ScopeSystem)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scope := []Scope{ScopeNode, ScopeRack, ScopeSystem}[i%3]
			for j := 0; j < 3; j++ {
				got := a.CondProb(ds.Systems, trace.CategoryPred(trace.Hardware), nil, trace.Week, scope)
				if scope == ScopeSystem && got.Conditional != want.Conditional {
					t.Errorf("concurrent read diverged: %+v vs %+v", got.Conditional, want.Conditional)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCountInWindow(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(1, 12), hwAt(2, 40)})
	a := New(ds)
	iv := trace.Interval{Start: day(9), End: day(20)}
	if n := a.didx.CountInWindow(1, nil, iv); n != 2 {
		t.Errorf("any count = %d, want 2", n)
	}
	if n := a.didx.CountInWindow(1, trace.CategoryPred(trace.Hardware), iv); n != 1 {
		t.Errorf("hw count = %d, want 1", n)
	}
	opaque := trace.PredOf(func(f trace.Failure) bool { return f.Node == 1 })
	if n := a.didx.CountInWindow(1, opaque, iv); n != 1 {
		t.Errorf("opaque count = %d, want 1", n)
	}
	if n := a.didx.CountInWindow(99, nil, iv); n != 0 {
		t.Errorf("unknown system count = %d, want 0", n)
	}
}

// servedAnchors and servedTargets are the anchor and target classes the
// server's /v1/condprob route answers (match-all first).
func servedAnchors() []struct {
	label string
	pred  trace.Pred
} {
	out := []struct {
		label string
		pred  trace.Pred
	}{{"any", nil}}
	out = append(out, anchorClasses()...)
	return append(out, []struct {
		label string
		pred  trace.Pred
	}{
		{"SW/OS", trace.SWPred(trace.OS)},
		{"ENV/PowerOutage", trace.EnvPred(trace.PowerOutage)},
	}...)
}

func servedTargets() []struct {
	label string
	pred  trace.Pred
} {
	return []struct {
		label string
		pred  trace.Pred
	}{
		{"any", nil},
		{"HW", trace.CategoryPred(trace.Hardware)},
		{"SW", trace.CategoryPred(trace.Software)},
		{"NET", trace.CategoryPred(trace.Network)},
		{"HW/Memory", trace.HWPred(trace.Memory)},
	}
}

// diffServedGrid runs the differential over the query grid the server
// serves: every served anchor × target × scope × day/week/month window, over
// all systems and over each group's subset.
func diffServedGrid(t *testing.T, a *Analyzer) {
	t.Helper()
	subsets := []struct {
		label   string
		systems []trace.SystemInfo
	}{
		{"all", a.DS.Systems},
		{"group1", a.DS.GroupSystems(trace.Group1)},
		{"group2", a.DS.GroupSystems(trace.Group2)},
	}
	for _, sub := range subsets {
		for _, anchor := range servedAnchors() {
			for _, target := range servedTargets() {
				for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
					for _, w := range []time.Duration{trace.Day, trace.Week, trace.Month} {
						got := a.CondProb(sub.systems, anchor.pred, target.pred, w, scope)
						want := a.CondProbNaive(sub.systems, anchor.pred, target.pred, w, scope)
						requireCondEqual(t, sub.label+"/"+anchor.label+"->"+target.label+"/"+scope.String()+"/"+trace.WindowName(w), got, want)
					}
				}
			}
		}
	}
}

// TestIndexedCondProbMatchesNaiveWindowEdges pins the window's open ends:
// targets exactly at the anchor, one nanosecond after it, one nanosecond
// before t+w and exactly at t+w, for each served window, on the anchor's
// node, a rack-mate and the other rack, with node IDs at the top of the
// system's range.
func TestIndexedCondProbMatchesNaiveWindowEdges(t *testing.T) {
	at := func(node int, tm time.Time, c trace.Category) trace.Failure {
		f := trace.Failure{System: 1, Node: node, Time: tm, Category: c}
		switch c {
		case trace.Hardware:
			f.HW = trace.Memory
		case trace.Software:
			f.SW = trace.OS
		}
		return f
	}
	for _, w := range []time.Duration{trace.Day, trace.Week, trace.Month} {
		t.Run(trace.WindowName(w), func(t *testing.T) {
			anchor := day(3, 12)
			var fs []trace.Failure
			for i, off := range []time.Duration{0, time.Nanosecond, w - time.Nanosecond, w, w + time.Nanosecond} {
				cat := []trace.Category{trace.Hardware, trace.Software, trace.Network}[i%3]
				fs = append(fs,
					at(3, anchor.Add(off), cat), // the anchor's node (top of range)
					at(2, anchor.Add(off), cat), // its rack-mate
					at(1, anchor.Add(off), cat), // the other rack
				)
			}
			fs = append(fs, at(3, anchor, trace.Hardware), at(0, anchor, trace.Software))
			// A second anchor cluster whose window closes exactly at the
			// period end (kept) and one a nanosecond later (clipped).
			end := day(98)
			fs = append(fs, at(3, end.Add(-w), trace.Hardware), at(2, end.Add(-w+time.Nanosecond), trace.Hardware),
				at(3, end.Add(-time.Nanosecond), trace.Software))
			diffCondProb(t, craft(fs))
		})
	}
}

// TestIndexedCondProbMatchesNaiveWideSystem covers a system whose layout
// places only part of a wide node range: events on the highest node IDs,
// on unplaced nodes, and on node IDs the catalog does not list.
func TestIndexedCondProbMatchesNaiveWideSystem(t *testing.T) {
	const nodes = 1024
	lay := layout.Regular(1, 64, 4)
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{{
			ID: 1, Group: trace.Group1, Nodes: nodes, ProcsPerNode: 4,
			Period: trace.Interval{Start: day(0), End: day(98)},
		}},
		Layouts: map[int]*layout.Layout{1: lay},
	}
	ids := []int{nodes - 1, nodes - 2, 63, 62, 0, 1, 5000, nodes - 1}
	for d := 0; d < 98; d++ {
		for i := 0; i < 3; i++ {
			n := ids[(d*3+i)%len(ids)]
			c := []trace.Category{trace.Hardware, trace.Software, trace.Network}[(d+i)%3]
			ds.Failures = append(ds.Failures, trace.Failure{System: 1, Node: n, Time: day(d, 4*i), Category: c, HW: trace.CPU})
		}
	}
	ds.Sort()
	diffCondProb(t, ds)
}

// TestIndexedCondProbMatchesNaiveAppendChain checks an index grown by a
// chain of Appends — tail extensions, then a late-arriving batch that
// forces a per-system rebuild, then tail extensions of the rebuilt system —
// against the naive scans of the same analyzer.
func TestIndexedCondProbMatchesNaiveAppendChain(t *testing.T) {
	full, err := simulate.Generate(simulate.Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	split := len(full.Failures) * 6 / 10
	boot := *full
	boot.Failures = append([]trace.Failure(nil), full.Failures[:split]...)
	a := New(&boot)
	rest := full.Failures[split:]
	// Hold back every fifth event of the first half of the tail and send
	// it late, mid-chain, after newer events of its system were indexed.
	half := len(rest) / 2
	var late, early, tail []trace.Failure
	for i, f := range rest {
		switch {
		case i >= half:
			tail = append(tail, f)
		case i%5 == 0:
			late = append(late, f)
		default:
			early = append(early, f)
		}
	}
	var batches [][]trace.Failure
	for _, part := range [][]trace.Failure{early, tail} {
		for len(part) > 0 {
			n := min(37, len(part))
			batches = append(batches, part[:n])
			part = part[n:]
		}
		if len(late) > 0 {
			batches = append(batches, late)
			late = nil
		}
	}
	ds := &boot
	for _, b := range batches {
		merged := *ds
		merged.Failures = append(append([]trace.Failure(nil), ds.Failures...), b...)
		// A stable time sort keeps tail batches a tail extension and
		// merges the late batch into place.
		sort.SliceStable(merged.Failures, func(i, j int) bool {
			return merged.Failures[i].Time.Before(merged.Failures[j].Time)
		})
		a = a.Append(&merged, b)
		ds = &merged
	}
	if len(ds.Failures) != len(full.Failures) {
		t.Fatalf("chain indexed %d events, want %d", len(ds.Failures), len(full.Failures))
	}
	diffServedGrid(t, a)
	weekend := trace.PredOf(func(f trace.Failure) bool {
		return f.Time.Weekday() == time.Saturday || f.Time.Weekday() == time.Sunday
	})
	for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
		got := a.CondProb(ds.Systems, weekend, weekend, trace.Week, scope)
		want := a.CondProbNaive(ds.Systems, weekend, weekend, trace.Week, scope)
		requireCondEqual(t, "opaque-both/"+scope.String(), got, want)
	}
}
