// Command perfbench is the repository benchmark. It boots internal/server
// in process on a loopback port, drives one named workload through
// internal/client, checks the answers, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload condprob-sweep|dashboard-hot|live-ingest \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the workload runs twice, untraced and then traced, and
// the result carries the per-layer metrics of the traced run plus the
// tracing overhead between the two. README.md describes the workloads, the
// metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Float64("seconds", 10, "measured wall seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || !(*seconds > 0) || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	if w.live && *seconds > liveMaxSeconds {
		fmt.Fprintf(os.Stderr, "perfbench: live-ingest measures at most %d seconds\n", liveMaxSeconds)
		return 2
	}
	res, err := execute(w, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the workload once untraced and, with traced set, once more
// traced, and assembles the result.
func execute(w *workload, seed int64, seconds float64, traced bool) (*result, error) {
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d nproc=%d\n",
		w.name, seed, seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	plain, err := runPass(w, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	plain.report()
	res := &result{Metrics: plain.endToEnd()}
	passes := []*pass{plain}
	if traced {
		tp, err := runPass(w, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		tp.report()
		passes = append(passes, tp)
		res.Metrics = tp.perLayer(plain)
	}
	res.Correct = true
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL (%s): %s\n", p.label(), msg)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	return res, nil
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
