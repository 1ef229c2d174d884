package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls into the program's public functions. Spans of one rep
// share Run; Parent is the enclosing span's ID (-1 for a rep's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing, so untraced reps pay one pointer test per call.
// It is used from the benchmark's driving goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records an already finished span under parent. Used for phases the
// benchmark observes from another goroutine (a runtime's paced phase).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// selfTimes returns, per span name, the summed self time in seconds of the
// spans of run: each span's duration minus the time its children cover.
// Children of one span are sequential calls, so their intervals do not
// overlap and their durations add.
func selfTimes(spans []span, run int) map[string]float64 {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Run == run && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.Run == run {
			out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e9
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name string
	self float64 // median over traced reps, seconds
}

// printLayerTable prints the per-layer self times (medians over traced
// reps) and the unexplained remainder against the end-to-end wall of a
// traced rep (set-up plus the timed call). Untraced is the untraced reps'
// median of the same wall, so traced minus untraced is the tracing
// overhead.
func printLayerTable(w io.Writer, rows []layerRow, unexplained, tracedWall, untracedWall float64) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%-36s %12s %8s\n", "layer (span self time)", "median s", "share")
	rows = append(rows, layerRow{name: "unexplained remainder", self: unexplained})
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %12.6f %7.2f%%\n", r.name, r.self, 100*r.self/tracedWall)
	}
	fmt.Fprintf(w, "%-36s %12.6f\n", "traced set-up + call (median)", tracedWall)
	fmt.Fprintf(w, "%-36s %12.6f\n", "untraced set-up + call (median)", untracedWall)
	fmt.Fprintf(w, "%-36s %12.6f\n", "tracing overhead (traced-untraced)", tracedWall-untracedWall)
}

// rootSpan names every rep's root span. It encloses the set-up, the
// timed call and the benchmark's own work between them (forced GCs,
// moment recomputation), so its self time is not the unexplained
// remainder; see perLayerValues.
const rootSpan = "rep"
