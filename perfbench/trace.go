package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer's start; parent is the
// id of the enclosing span, or -1 at the root.
type span struct {
	name       string
	start, end int64
	parent     int32
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// is the untraced state: begin returns -1 and end does nothing, so call
// sites need no conditionals. Safe for concurrent use (sweep workers
// record spans from several goroutines).
type tracer struct {
	workload, runID string
	t0              time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload, runID string) *tracer {
	return &tracer{workload: workload, runID: runID, t0: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children may
// overlap one another (parallel workers); the union of their intervals,
// clipped to the parent's, is what gets subtracted. Unclosed spans count
// as zero-length.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		iv = iv[:0]
		for _, c := range children[i] {
			cs, ce := spans[c].start, spans[c].end
			if cs < s.start {
				cs = s.start
			}
			if ce > s.end {
				ce = s.end
			}
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		self[i] = s.end - s.start - unionLen(iv)
	}
	return self
}

// unionLen returns the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.name] += float64(self[i]) / 1e9
	}
	return out
}

// durations returns the durations, in milliseconds, of every closed span
// with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir, one header line with
// the machine record first, and returns the file's path.
func (t *tracer) write(dir string, header any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, t.workload+"-"+t.runID+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID       int32  `json:"id"`
		Parent   int32  `json:"parent"`
		Name     string `json:"name"`
		StartNs  int64  `json:"start_ns"`
		EndNs    int64  `json:"end_ns"`
		Workload string `json:"workload"`
		Run      string `json:"run"`
	}
	err = enc.Encode(header)
	for i, s := range t.snapshot() {
		if err != nil {
			break
		}
		err = enc.Encode(rec{int32(i), s.parent, s.name, s.start, s.end, t.workload, t.runID})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
