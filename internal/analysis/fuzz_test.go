package analysis

import (
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// fuzzSteps are the gaps between consecutive fuzz events: ties, a
// nanosecond, and each served window's length and its neighbours, so
// decoded timelines cluster and land on the windows' open ends.
var fuzzSteps = []time.Duration{
	0, 0, time.Nanosecond, time.Hour, 7 * time.Hour,
	trace.Day - time.Nanosecond, trace.Day, trace.Day + time.Nanosecond,
	trace.Week - time.Nanosecond, trace.Week, 3 * trace.Day,
	trace.Month - time.Nanosecond, trace.Month, 0, time.Nanosecond, 2 * time.Hour,
}

// fuzzPreds are the class-routed predicates the fuzzer draws anchors and
// targets from.
var fuzzPreds = []trace.Pred{
	nil,
	trace.CategoryPred(trace.Hardware),
	trace.CategoryPred(trace.Software),
	trace.CategoryPred(trace.Network),
	trace.HWPred(trace.Memory),
	trace.SWPred(trace.OS),
	trace.EnvPred(trace.PowerOutage),
}

// fuzzDataset decodes bytes into a tiny two-system dataset: system 1 has
// six nodes, five of them placed in two racks; system 2 has four nodes and
// no layout. Each event takes three bytes (system and node; category and
// component; gap to the previous event), and the timeline starts a little
// before the measurement periods so the baseline's first window and the
// anchor clipping at the period end both see edge events.
func fuzzDataset(data []byte) *trace.Dataset {
	start := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	lay := layout.New(1)
	for n := 0; n < 5; n++ {
		_ = lay.SetPlace(n, layout.Place{Rack: n / 3, Position: n%3 + 1})
	}
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{
			{ID: 1, Group: trace.Group1, Nodes: 6, ProcsPerNode: 4,
				Period: trace.Interval{Start: start, End: start.Add(10 * trace.Week)}},
			{ID: 2, Group: trace.Group2, Nodes: 4, ProcsPerNode: 16,
				Period: trace.Interval{Start: start, End: start.Add(3 * trace.Month)}},
		},
		Layouts: map[int]*layout.Layout{1: lay},
	}
	t := start.Add(-5 * time.Hour)
	for ; len(data) >= 3; data = data[3:] {
		sys := ds.Systems[data[0]&1]
		f := trace.Failure{System: sys.ID, Node: int(data[0]>>1) % sys.Nodes}
		f.Category = trace.Categories[int(data[1])%len(trace.Categories)]
		sub := int(data[1]) / len(trace.Categories)
		switch f.Category {
		case trace.Hardware:
			f.HW = trace.HWComponents[sub%len(trace.HWComponents)]
		case trace.Software:
			f.SW = trace.SWClasses[sub%len(trace.SWClasses)]
		case trace.Environment:
			f.Env = trace.EnvClasses[sub%len(trace.EnvClasses)]
		}
		t = t.Add(fuzzSteps[int(data[2])%len(fuzzSteps)])
		f.Time = t
		ds.Failures = append(ds.Failures, f)
	}
	ds.Sort()
	return ds
}

// opaque wraps a predicate so it routes through the per-event filter
// instead of a posting list, with the same answers.
func opaque(p trace.Pred) trace.Pred {
	return trace.PredOf(func(f trace.Failure) bool { return p.Match(f) })
}

// FuzzCondProbMatchesNaive decodes arbitrary bytes into a small clustered
// dataset and requires the indexed kernel to agree bit for bit (NaN equal
// to NaN) with the naive reference for the input-chosen anchor and target,
// at every scope and served window, with class-routed and with opaque
// predicates.
func FuzzCondProbMatchesNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0x02, 0x10, 0x03, 0x01, 0x06, 0x07, 0x02, 0x11, 0x0c, 0x00})
	f.Add([]byte{1, 0, 0x04, 0x01, 0x00, 0x08, 0x05, 0x00, 0x02, 0x08, 0x01, 0x0a, 0x05, 0x03, 0x0c, 0x09, 0x0a, 0x0b})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 2+3*96 {
			data = data[:2+3*96]
		}
		anchor := fuzzPreds[int(data[0])%len(fuzzPreds)]
		target := fuzzPreds[int(data[1])%len(fuzzPreds)]
		ds := fuzzDataset(data[2:])
		a := New(ds)
		preds := []struct {
			label          string
			anchor, target trace.Pred
		}{
			{"routed", anchor, target},
			{"opaque", opaque(anchor), opaque(target)},
		}
		for _, p := range preds {
			for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
				for _, w := range []time.Duration{trace.Day, trace.Week, trace.Month} {
					got := a.CondProb(ds.Systems, p.anchor, p.target, w, scope)
					want := a.CondProbNaive(ds.Systems, p.anchor, p.target, w, scope)
					requireCondEqual(t, p.label+"/"+scope.String()+"/"+trace.WindowName(w), got, want)
				}
			}
		}
	})
}
