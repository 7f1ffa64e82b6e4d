package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared VM a fixed loop can run a third
// slower for minutes while other tenants are busy, and every timing of a
// run moves with it, so that the spread between runs swamps any bound. The
// benchmark therefore times a fixed reference task of its own, the probe,
// around every set-up and between the slices of the measured window, with
// no load running. Every timing is then reported at the reference speed,
// as measured × probeRef / p, and a closed-loop throughput as measured ×
// p / probeRef, where p is the median probe around the set-ups for
// setup_s and around the slices for the window's figures. The probe runs
// no code of the program under test and allocates next to nothing, so a
// change to the program moves the figures, not the probe.
//
// The probe does the two kinds of work the workloads spend their time on:
// dependent reads over a table larger than a core's caches, as the
// analysis kernels' scans and the collector's marking are, and one-byte
// round trips over a loopback TCP connection of its own, as the load's
// requests are. In twelve 10 s runs per workload on a 2-vCPU VM the pair
// cut the spread of dashboard-hot's cpu_ms_per_op from 0.165 to 0.058,
// where table reads and getppid calls cut it to 0.106; on condprob-sweep,
// whose runs spread 0.045 unscaled, both pairs kept it at 0.05.
const (
	// probeWords sizes the probe's table: 8 MiB, larger than a core's
	// private caches, as the kernels' scans are.
	probeWords = 1 << 20
	// probeSteps and probeTrips are one worker's dependent table reads
	// and loopback round trips per repetition, about 5 ms each on a
	// 2-vCPU VM.
	probeSteps = 30_000
	probeTrips = 300
	// probeReps repetitions make one probe; the probe is their median, so
	// a repetition interrupted once does not move it.
	probeReps = 5
	// probeRef is the probe's time at the reference speed: about the
	// one-worker probe's median on a 2-vCPU VM (go1.24, GOMAXPROCS=2),
	// where the two-worker probe reads about 12.5 ms.
	probeRef = 10 * time.Millisecond
)

// probeTable is the probe's read-only table, outside the Go heap so that it
// neither shows in heap_mb nor paces the server's collections.
var probeTable = func() []uint64 {
	mem, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("probe table: %v", err))
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), probeWords)
	for i := range t {
		t[i] = mix64(uint64(i))
	}
	return t
}()

// probeSink keeps the probe's result live, so the compiler cannot drop it.
var probeSink atomic.Uint64

// prober runs the probe. Each worker has its own loopback connection to
// an echo goroutine.
type prober struct {
	links []net.Conn
}

// newProber connects one loopback link per worker.
func newProber(workers int) (*prober, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	pr := &prober{}
	for i := 0; i < workers; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			pr.close()
			return nil, err
		}
		pr.links = append(pr.links, c)
		e, err := ln.Accept()
		if err != nil {
			pr.close()
			return nil, err
		}
		go echo(e)
	}
	return pr, nil
}

// echo writes back every byte it reads until its link closes.
func echo(c net.Conn) {
	defer c.Close()
	var b [1]byte
	for {
		if _, err := c.Read(b[:]); err != nil {
			return
		}
		if _, err := c.Write(b[:]); err != nil {
			return
		}
	}
}

// close ends the links; each echo goroutine ends at its link's EOF.
func (pr *prober) close() {
	for _, c := range pr.links {
		c.Close()
	}
}

// work is one worker's share of a repetition: a chain of hashes, each
// indexing the table with the last, and then round trips over its link.
func work(x uint64, link net.Conn) uint64 {
	for i := 0; i < probeSteps; i++ {
		x = mix64(x ^ probeTable[x&(probeWords-1)])
	}
	var b [1]byte
	for i := 0; i < probeTrips; i++ {
		if _, err := link.Write(b[:]); err != nil {
			panic(fmt.Sprintf("probe link: %v", err))
		}
		if _, err := io.ReadFull(link, b[:]); err != nil {
			panic(fmt.Sprintf("probe link: %v", err))
		}
	}
	return x
}

// time runs the reference task on every worker at once and returns its
// median repetition. A workload that keeps every processor busy is probed
// on every processor, so the probe slows both with slower cores and with
// processors the host withholds; a light one is probed on one, which a
// withheld processor barely slows, as it barely slows the workload.
func (pr *prober) time() time.Duration {
	reps := make([]float64, probeReps)
	for r := range reps {
		start := time.Now()
		var wg sync.WaitGroup
		for g, link := range pr.links {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				probeSink.Add(work(seed, link))
			}(uint64(r*len(pr.links) + g))
		}
		wg.Wait()
		reps[r] = float64(time.Since(start))
	}
	sort.Float64s(reps)
	return time.Duration(reps[probeReps/2])
}

// slowdown is how much slower than the reference speed the host ran
// while probes took ps: their median over probeRef.
func slowdown(ps []time.Duration) float64 {
	var ms []float64
	for _, d := range ps {
		ms = append(ms, float64(d))
	}
	return median(ms) / float64(probeRef)
}
