package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is the ID of the span whose call
// caused this one (0 for a root); Group ties the spans of one run or study
// together.
type Span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Group  string    `json:"group"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span and returns its ID; End closes it.
func (t *Tracer) Begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Group: group, Start: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records an already-measured span (for timestamps taken by a callback
// the program invokes, such as a progress hook).
func (t *Tracer) Add(name, group string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Group: group, Start: start, End: end})
	return id
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write stores the spans as JSON under dir, one file per run.
func (t *Tracer) Write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its direct children. Children may overlap each
// other (parallel shards under one parent); the covered part is the union
// of their intervals clipped to the parent, so overlapping children are not
// subtracted twice.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent Span, children []Span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case !x[0].After(curB):
			if x[1].After(curB) {
				curB = x[1]
			}
		default:
			total += curB.Sub(curA)
			curA, curB = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// Total sums the durations of every span with the given name.
func Total(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur()
		}
	}
	return d
}

// TotalPrefix sums the durations of every span whose name starts with
// prefix.
func TotalPrefix(spans []Span, prefix string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.Dur()
		}
	}
	return d
}

// MaxDur is the longest span with the given name.
func MaxDur(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name && s.Dur() > d {
			d = s.Dur()
		}
	}
	return d
}
