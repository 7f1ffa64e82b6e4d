package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// span is one timed interval at a layer boundary. Spans of one op share
// ReqID; Parent names the enclosing span's layer.
type span struct {
	Name   string `json:"name"`
	ReqID  int64  `json:"req_id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Cache  string `json:"cache,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans from outside the program: the server's Middleware
// hook around the routed mux, and a timing iofault.FS under the WAL. Spans
// stay in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	fs    iofault.FS
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.fs = timingFS{FS: iofault.Disk, t: t}
	return t
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware is the Config.Middleware hook: it times the routed handler of
// every request that carries the benchmark's request ID, counts response
// bytes, and notes the cache outcome the handler reported.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		route := routeOfPath(r.URL.Path)
		if err != nil || route == "" {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		t.add(span{Name: "server." + route, ReqID: id, Parent: "client.op", Start: t.ns(start), End: t.ns(end), Bytes: cw.n, Cache: cw.Header().Get("X-Cache")})
	})
}

// timingFS times the WAL's writes and fsyncs on the real disk.
type timingFS struct {
	iofault.FS
	t *tracer
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: h, t: f.t}, nil
}

func (f timingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	h, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timingFile{File: h, t: f.t}, nil
}

func (f timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.t.add(span{Name: "wal.fsync", ReqID: -1, Start: f.t.ns(start), End: f.t.ns(time.Now())})
	return err
}

type timingFile struct {
	iofault.File
	t *tracer
}

func (f timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.add(span{Name: "wal.write", ReqID: -1, Start: f.t.ns(start), End: f.t.ns(time.Now()), Bytes: int64(n)})
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.add(span{Name: "wal.fsync", ReqID: -1, Start: f.t.ns(start), End: f.t.ns(time.Now())})
	return err
}

// addClientSpans records each measured op's client round trip as the root
// span of its request.
func (t *tracer) addClientSpans(samples []sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range samples {
		t.spans = append(t.spans, span{Name: "client.op", ReqID: s.seq, Start: s.start - t.epoch.UnixNano(), End: s.end - t.epoch.UnixNano()})
	}
}

// attachWAL gives each WAL span the events handler span that encloses it
// as parent. The WAL has no request context, so the parent is inferred by
// containment: the latest-starting events span that covers the WAL span.
// WAL work outside any request (maintenance syncs) keeps no parent.
func (t *tracer) attachWAL() {
	var events []int
	for i, s := range t.spans {
		if s.Name == "server."+routeEvents {
			events = append(events, i)
		}
	}
	sort.Slice(events, func(a, b int) bool { return t.spans[events[a]].Start < t.spans[events[b]].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "wal.write" && s.Name != "wal.fsync" {
			continue
		}
		k := sort.Search(len(events), func(k int) bool { return t.spans[events[k]].Start > s.Start })
		for k--; k >= 0; k-- {
			p := t.spans[events[k]]
			if p.End >= s.End {
				s.ReqID, s.Parent = p.ReqID, p.Name
				break
			}
			if s.Start-p.Start > int64(time.Second) {
				break
			}
		}
	}
}

// write stores the spans as JSON lines under .bench_build/trace/.
func (t *tracer) write(name string) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
