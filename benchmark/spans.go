package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tetrisched/internal/trace"
)

// span is one timed call into a layer, recorded by the harness around the
// call (never inside the program). id is the identifier the spans of one
// trip share: the cycle index for scheduler calls made by a cycle, the job ID
// for submissions and completions.
type span struct {
	name       string
	start, end int64 // nanoseconds since the recorder's epoch
	parent     int   // index of the causing span, -1 for a root
	id         int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use because the front-door workload records from HTTP handler
// goroutines.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; close it with end.
func (r *recorder) begin(name string, parent int, id int64) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: now, end: now, parent: parent, id: id})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.start
		for _, k := range iv {
			lo, end := k[0], k[1]
			if lo < hi {
				lo = hi
			}
			if end > s.end {
				end = s.end
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeChrome dumps the spans as Chrome trace JSON through internal/trace's
// sink, one track per layer (the part of the span name before the dot).
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := trace.NewChromeSink(f)
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		ev := trace.Event{Seq: uint64(i), TS: s.start, Dur: s.dur(), VT: -1,
			Kind: trace.KindSpan, Cat: cat, Name: s.name}
		ev.Args[0] = trace.I("id", s.id)
		ev.Args[1] = trace.I("parent", int64(s.parent))
		ev.NArg = 2
		if err := sink.Emit(&ev); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := sink.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
