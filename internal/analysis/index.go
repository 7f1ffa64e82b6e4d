package analysis

import (
	"sort"
	"sync/atomic"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// DatasetIndex precomputes, once per dataset, everything the conditional-
// probability kernel needs to answer an (anchor, target, window, scope)
// query in one sweep per system: per-system time-sorted event timelines
// (int64 UnixNano times plus a dense node slot per position) with
// class-partitioned posting lists at system, node and rack granularity, plus
// each placed node's precomputed rack-mates. A posting list stores positions
// into the system timeline in time order, so an event's position in its
// list doubles as the cumulative count of earlier same-class events and a
// count-in-window is two binary searches.
//
// Predicates built from the standard constructors route to the posting list
// of their trace.Class; PredOf predicates (trace.ClassOpaque) fall back to
// the ClassAny timeline filtered per event. The index is immutable once
// published and safe for concurrent readers; Append extends it copy-on-write
// without disturbing readers of the old value.
type DatasetIndex struct {
	sys map[int]*systemIndex
}

// nodeClassKey addresses one (node, class) or (rack, class) posting list.
type nodeClassKey struct {
	id  int
	cls trace.Class
}

// systemIndex holds the per-system timelines and posting lists.
type systemIndex struct {
	fails []trace.Failure // the system's failures in dataset (time) order
	ns    []int64         // ns[i] == fails[i].Time.UnixNano(), the kernel's timeline
	node  []int32         // node[i] is the dense slot of fails[i].Node

	byClass [trace.NumClasses][]int32
	// nodeClass and rackClass are not read by the kernel, which sweeps
	// byClass; they serve SystemView, through which the correlation miner
	// walks one node's or one rack's events.
	nodeClass map[nodeClassKey][]int32
	rackClass map[nodeClassKey][]int32

	// slotOf numbers the system's node IDs densely, placed nodes first (in
	// the layout's order), then the others in arrival order; nslots is the
	// number of slots this version uses and sizes the kernel's scratch.
	// Only add reads or writes slotOf, so index versions of one Append
	// chain share it: the extension claim admits one writer at a time, and
	// a version never sees slots beyond its own nslots.
	slotOf map[int]int32
	nslots int

	lay sysLayout

	// extended is claimed (once, by CAS) by the first Append that wants to
	// grow this system's slices into their spare capacity. Readers only ever
	// look at the first len elements they were published with, so tail
	// growth by the unique claim holder is safe; any other Append that
	// reaches this system loses the claim and rebuilds it instead.
	extended atomic.Bool
}

// sysLayout is the rack structure of a system's layout in the forms the
// index needs, built once and shared (immutably) by every index version of
// the system. The zero value describes a system without a layout.
type sysLayout struct {
	rackOf map[int]int   // rack per placed node
	slotOf map[int]int32 // placed node -> slot, 0..len-1 in Nodes() order
	mates  [][]int32     // mates[slot]: slots of the node's other rack members
}

// NewDatasetIndex builds the index over a sorted dataset. Every system
// mentioned by ds.Systems or by a failure record gets an entry, so queries
// over empty or unknown systems degrade to empty posting lists.
func NewDatasetIndex(ds *trace.Dataset) *DatasetIndex {
	x := &DatasetIndex{sys: make(map[int]*systemIndex, len(ds.Systems))}
	sysOf := func(id int) *systemIndex {
		si := x.sys[id]
		if si == nil {
			si = newSystemIndex(layoutOf(ds.Layouts[id]))
			x.sys[id] = si
		}
		return si
	}
	for _, s := range ds.Systems {
		sysOf(s.ID)
	}
	var clsBuf [4]trace.Class
	for _, f := range ds.Failures {
		sysOf(f.System).add(f, clsBuf[:0])
	}
	return x
}

// newSystemIndex returns an empty per-system index over the given layout,
// with the placed nodes' slots already assigned.
func newSystemIndex(lay sysLayout) *systemIndex {
	si := &systemIndex{
		nodeClass: make(map[nodeClassKey][]int32),
		rackClass: make(map[nodeClassKey][]int32),
		slotOf:    make(map[int]int32, len(lay.slotOf)),
		nslots:    len(lay.slotOf),
		lay:       lay,
	}
	for n, s := range lay.slotOf {
		si.slotOf[n] = s
	}
	return si
}

// layoutOf precomputes the rack-per-node map and the slot-numbered
// rack-mates of a layout.
func layoutOf(lay *layout.Layout) sysLayout {
	if lay == nil {
		return sysLayout{}
	}
	nodes := lay.Nodes()
	l := sysLayout{
		rackOf: make(map[int]int, len(nodes)),
		slotOf: make(map[int]int32, len(nodes)),
		mates:  make([][]int32, len(nodes)),
	}
	for i, n := range nodes {
		l.rackOf[n] = lay.Rack(n)
		l.slotOf[n] = int32(i)
	}
	for i, n := range nodes {
		for _, m := range lay.RackMates(n) {
			l.mates[i] = append(l.mates[i], l.slotOf[m])
		}
	}
	return l
}

// matesOf returns the rack-mate slots of the node in slot s (nil for nodes
// the layout does not place).
func (l *sysLayout) matesOf(s int32) []int32 {
	if int(s) < len(l.mates) {
		return l.mates[s]
	}
	return nil
}

// slot returns the node's dense slot, assigning the next one to a node the
// system has not seen.
func (si *systemIndex) slot(node int) int32 {
	s, ok := si.slotOf[node]
	if !ok {
		s = int32(si.nslots)
		si.slotOf[node] = s
		si.nslots++
	}
	return s
}

// add indexes one event at the tail of the timeline. The event's time must
// not precede the current last event. clsBuf is scratch for ClassesOf.
func (si *systemIndex) add(f trace.Failure, clsBuf []trace.Class) {
	p := int32(len(si.fails))
	si.fails = append(si.fails, f)
	si.ns = append(si.ns, f.Time.UnixNano())
	si.node = append(si.node, si.slot(f.Node))
	for _, c := range trace.ClassesOf(f, clsBuf) {
		si.byClass[c] = append(si.byClass[c], p)
		k := nodeClassKey{f.Node, c}
		si.nodeClass[k] = append(si.nodeClass[k], p)
		if r, ok := si.lay.rackOf[f.Node]; ok {
			rk := nodeClassKey{r, c}
			si.rackClass[rk] = append(si.rackClass[rk], p)
		}
	}
}

// cowCopy returns a copy of si with freshly allocated posting-list maps so
// the copy can grow without mutating map state concurrent readers of si are
// iterating. The slice headers (timeline and posting lists) and the slot
// map are shared; the caller must hold the parent index's extension claim
// before appending to them in place.
func (si *systemIndex) cowCopy() *systemIndex {
	ns := &systemIndex{
		fails:     si.fails,
		ns:        si.ns,
		node:      si.node,
		byClass:   si.byClass,
		nodeClass: make(map[nodeClassKey][]int32, len(si.nodeClass)+8),
		rackClass: make(map[nodeClassKey][]int32, len(si.rackClass)+8),
		slotOf:    si.slotOf,
		nslots:    si.nslots,
		lay:       si.lay,
	}
	for k, v := range si.nodeClass {
		ns.nodeClass[k] = v
	}
	for k, v := range si.rackClass {
		ns.rackClass[k] = v
	}
	return ns
}

// sortBatch orders a batch by (time, node, category) so equal inputs index
// identically regardless of arrival order within the batch.
func sortBatch(evs []trace.Failure) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Category < b.Category
	})
}

// mergeByTime merges two time-sorted event sequences, older entries first on
// ties, into a fresh slice.
func mergeByTime(a, b []trace.Failure) []trace.Failure {
	out := make([]trace.Failure, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if !b[j].Time.Before(a[i].Time) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Append returns a new index covering x's events plus batch, leaving x and
// every snapshot sharing its slices untouched. ds supplies layouts for
// systems the batch introduces; batch events need not be sorted.
//
// Appends whose events land at or after a touched system's last indexed
// event extend that system's time-sorted slices and posting lists in place —
// amortized O(log n) per event plus a posting-map copy bounded by the
// system's (node × class) catalog. In-place growth requires winning the
// system's one-shot extension claim, which every linear chain of appends
// (the versioned store's write path) does; late-arriving events, or a second
// Append racing for the same parent system, fall back to rebuilding just
// that system, which is slower but yields the same index contents.
// Untouched systems are always shared.
func (x *DatasetIndex) Append(ds *trace.Dataset, batch []trace.Failure) *DatasetIndex {
	if len(batch) == 0 {
		return x
	}
	nx := &DatasetIndex{sys: make(map[int]*systemIndex, len(x.sys)+1)}
	for id, si := range x.sys {
		nx.sys[id] = si
	}
	var order []int
	perSys := make(map[int][]trace.Failure)
	for _, f := range batch {
		if _, ok := perSys[f.System]; !ok {
			order = append(order, f.System)
		}
		perSys[f.System] = append(perSys[f.System], f)
	}
	var clsBuf [4]trace.Class
	for _, id := range order {
		evs := perSys[id]
		sortBatch(evs)
		old := x.sys[id]
		var ns *systemIndex
		switch {
		case old == nil:
			ns = newSystemIndex(layoutOf(ds.Layouts[id]))
		case (len(old.ns) == 0 || evs[0].Time.UnixNano() >= old.ns[len(old.ns)-1]) &&
			old.extended.CompareAndSwap(false, true):
			ns = old.cowCopy()
		default:
			evs = mergeByTime(old.fails, evs)
			ns = newSystemIndex(old.lay)
		}
		for _, f := range evs {
			ns.add(f, clsBuf[:0])
		}
		nx.sys[id] = ns
	}
	return nx
}

// system returns the per-system index, or nil when the system has no entry.
func (x *DatasetIndex) system(id int) *systemIndex {
	if x == nil {
		return nil
	}
	return x.sys[id]
}

// Systems returns the number of indexed systems.
func (x *DatasetIndex) Systems() int { return len(x.sys) }

// Events returns the total number of indexed failures.
func (x *DatasetIndex) Events() int {
	n := 0
	for _, si := range x.sys {
		n += len(si.fails)
	}
	return n
}

// CountInWindow returns the number of failures of the system matching pred
// inside iv, from the cumulative posting-list positions: two binary searches
// for class-routed predicates, a window-bounded filter for opaque ones.
func (x *DatasetIndex) CountInWindow(system int, pred trace.Pred, iv trace.Interval) int {
	si := x.system(system)
	if si == nil {
		return 0
	}
	cls, fil := routePred(pred)
	list := si.byClass[cls]
	start, end := iv.Start.UnixNano(), iv.End.UnixNano()
	lo := lowerBound(si.ns, list, start)
	if fil == nil {
		return lowerBound(si.ns, list, end) - lo
	}
	n := 0
	for i := lo; i < len(list) && si.ns[list[i]] < end; i++ {
		if fil.Match(si.fails[list[i]]) {
			n++
		}
	}
	return n
}

// routePred splits a predicate into the posting-list class that answers it
// and the residual per-event filter: class-routed predicates need no filter,
// opaque ones scan the ClassAny timeline and keep the predicate as filter.
func routePred(pred trace.Pred) (trace.Class, trace.Pred) {
	cls := pred.Class()
	if cls == trace.ClassOpaque {
		return trace.ClassAny, pred
	}
	return cls, nil
}

// lowerBound returns the first position of list whose event time is not
// before t. list holds positions into ns in ascending time order.
func lowerBound(ns []int64, list []int32, t int64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[list[mid]] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first position of list whose event time is after
// t: the count of leading events at or before t.
func upperBound(ns []int64, list []int32, t int64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[list[mid]] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
