package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request share RequestID; Parent is
// the enclosing span's ID (0 for a request's root).
type span struct {
	Name      string `json:"name"`
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"`
	RequestID string `json:"request_id"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends; times are offsets from
// its epoch.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, so children can name a parent before it ends.
func (t *tracer) id() int64 { return t.next.Add(1) }

func (t *tracer) add(id, parent int64, name, req string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, RequestID: req,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// timed runs f and returns its duration, recording it as a span when the
// tracer is non-nil.
func (t *tracer) timed(parent int64, name, req string, f func() error) (time.Duration, error) {
	var id int64
	if t != nil {
		id = t.id()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	if t != nil {
		t.add(id, parent, name, req, start, end)
	}
	return end.Sub(start), err
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	return spans, json.Unmarshal(b, &spans)
}

// spanFile names the span file of one traced run.
func spanFile(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

// spanIndex is the span file's tree: self time per span, and durations by
// span name.
type spanIndex struct {
	byID   map[int64]span
	self   map[int64]time.Duration
	byName map[string][]span
}

// indexSpans computes each span's self time: its duration minus the part
// of its interval its children cover.
func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byID: map[int64]span{}, self: map[int64]time.Duration{}, byName: map[string][]span{}}
	children := map[int64][]span{}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered, curS, curE int64 = 0, -1, -1
		for _, k := range kids {
			ks, ke := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		ix.self[s.ID] = s.dur() - time.Duration(covered)
	}
	return ix
}

// selfMs returns the self times, in milliseconds, of every span named
// name. A per-layer metric is read from spans that must exist: if no span
// has the name, the run fails its checks instead of reporting 0.
func (ix *spanIndex) selfMs(r *report, name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(ix.self[s.ID]))
	}
	r.check(len(out) > 0, "the span file holds no %s span", name)
	return out
}

// uncontained lists spans that are not inside their parent's interval or
// belong to another request than their parent.
func (ix *spanIndex) uncontained() []string {
	var bad []string
	for _, s := range ix.byID {
		if s.Parent == 0 {
			continue
		}
		p, ok := ix.byID[s.Parent]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s (request %s): parent %d missing", s.Name, s.RequestID, s.Parent))
		case s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.EndNs < s.StartNs:
			bad = append(bad, fmt.Sprintf("%s (request %s) not inside %s", s.Name, s.RequestID, p.Name))
		case s.RequestID != p.RequestID:
			bad = append(bad, fmt.Sprintf("%s: request %s, parent's %s", s.Name, s.RequestID, p.RequestID))
		}
	}
	sort.Strings(bad)
	return bad
}
