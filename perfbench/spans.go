package main

import (
	"sort"
	"sync"
	"time"
)

// spans records one span per call the benchmark makes into a layer:
// name, start, end and the span that caused it. All spans of a run
// share the run's trace ID. They stay in memory and are written out
// with the traced run's other artifacts. A nil *spans records nothing,
// which is how untimed and untraced code paths call it.
type spans struct {
	mu      sync.Mutex
	traceID string
	t0      time.Time
	list    []span
}

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a root span
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

func newSpans(traceID string) *spans { return &spans{traceID: traceID, t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	at := float64(time.Since(s.t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, StartUs: at})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	at := float64(time.Since(s.t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.list[id-1].EndUs = at
	s.mu.Unlock()
}

// spanFile is the on-disk form: every span plus each name's total and
// self time (its duration minus the part its children cover).
type spanFile struct {
	TraceID string          `json:"traceId"`
	Spans   []span          `json:"spans"`
	ByName  []spanNameTotal `json:"byName"`
}

type spanNameTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

func (s *spans) file() spanFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	childUs := make([]float64, len(s.list)+1)
	for _, sp := range s.list {
		if sp.Parent != 0 {
			childUs[sp.Parent] += sp.EndUs - sp.StartUs
		}
	}
	totals := map[string]*spanNameTotal{}
	for _, sp := range s.list {
		t := totals[sp.Name]
		if t == nil {
			t = &spanNameTotal{Name: sp.Name}
			totals[sp.Name] = t
		}
		dur := sp.EndUs - sp.StartUs
		t.Count++
		t.TotalMs += dur / 1e3
		// Children of one span never overlap in this benchmark's
		// call tree except on the service workload's two clients,
		// whose spans are roots, so summed child time is covered time.
		t.SelfMs += (dur - childUs[sp.ID]) / 1e3
	}
	out := spanFile{TraceID: s.traceID, Spans: append([]span(nil), s.list...)}
	for _, t := range totals {
		out.ByName = append(out.ByName, *t)
	}
	sort.Slice(out.ByName, func(i, j int) bool { return out.ByName[i].TotalMs > out.ByName[j].TotalMs })
	return out
}
