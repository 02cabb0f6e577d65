package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval of one request. Spans of one request share Req;
// Parent names the span of the same request that caused this one.
type Span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
}

// Trace collects spans in memory; the driver writes them out when the run
// ends.
//
// The program under test has no span hooks yet, so only the outermost span
// of a request (the real ServeHTTP call) is measured in place. The layers
// beneath it are measured by replaying the same request through each
// layer's public function in later sweeps, and Replay lays those spans end
// to end from their parent's start, as if they had run inside it. When
// spans move into the program the file format and SelfTimes stay as they
// are.
type Trace struct {
	t0    time.Time
	Spans []Span
	next  map[spanKey]int64 // (req, name) -> where that span's next replayed child starts
}

type spanKey struct {
	req  int
	name string
}

// NewTrace starts a trace.
func NewTrace() *Trace {
	return &Trace{t0: time.Now(), next: map[spanKey]int64{}}
}

// Real records a span measured in place.
func (t *Trace) Real(req int, name string, start, end time.Time) {
	t.add(Span{Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// Replay records a span of duration d measured on its own. With a parent,
// which must have been recorded before, it is placed after the parent's
// earlier children; without one it stands alone.
func (t *Trace) Replay(req int, name, parent string, d time.Duration) {
	start := time.Since(t.t0).Nanoseconds()
	if parent != "" {
		pk := spanKey{req, parent}
		start = t.next[pk]
		t.next[pk] = start + d.Nanoseconds()
	}
	t.add(Span{Req: req, Name: name, Parent: parent, Start: start, End: start + d.Nanoseconds()})
}

func (t *Trace) add(s Span) {
	t.next[spanKey{s.Req, s.Name}] = s.Start
	t.Spans = append(t.Spans, s)
}

// WriteFile writes the spans as JSON.
func (t *Trace) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SpanStat sums the spans of one name over all requests.
type SpanStat struct {
	Count int
	// Total is the summed duration, Self the summed duration minus the part
	// of each span its children cover.
	Total, Self time.Duration
}

// MeanUS is the mean duration per span in microseconds.
func (s SpanStat) MeanUS() float64 { return perSpanUS(s.Total, s.Count) }

// SelfUS is the mean self time per span in microseconds.
func (s SpanStat) SelfUS() float64 { return perSpanUS(s.Self, s.Count) }

func perSpanUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// SelfTimes reduces spans to per-name totals. A span's self time is its
// duration minus the time its children cover; where children overlap each
// other the overlap is subtracted once. Children are not clipped to the
// parent: a child measured in place cannot outlast it, and a replayed one
// that does (it ran in a later sweep and met a collection the parent did
// not) makes that one self time negative and leaves the mean over requests
// unbiased, where clipping would push every mean up.
func SelfTimes(spans []Span) map[string]SpanStat {
	children := map[spanKey][]Span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := spanKey{s.Req, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]SpanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered(children[spanKey{s.Req, s.Name}]))
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the kids' intervals.
func covered(kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := int64(math.MinInt64) // everything before at is already accounted for
	for _, k := range kids {
		if lo := max(k.Start, at); k.End > lo {
			sum += k.End - lo
			at = k.End
		}
	}
	return sum
}
