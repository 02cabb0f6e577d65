package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cote/internal/props"
)

// This file is the one shared serialization of estimation results: the
// service's JSON responses and the CLIs' human-readable printing both go
// through it instead of hand-rolling their own formats.

// String renders per-method plan counts compactly, e.g.
// "MGJN 12, NLJN 34, HSJN 5 (total 51)".
func (p PlanCounts) String() string {
	return fmt.Sprintf("MGJN %d, NLJN %d, HSJN %d (total %d)",
		p.ByMethod[props.MGJN], p.ByMethod[props.NLJN], p.ByMethod[props.HSJN], p.Total())
}

type planCountsJSON struct {
	MGJN  int `json:"mgjn"`
	NLJN  int `json:"nljn"`
	HSJN  int `json:"hsjn"`
	Total int `json:"total"`
}

// MarshalJSON renders the counts as named per-method fields plus the total.
func (p PlanCounts) MarshalJSON() ([]byte, error) {
	return json.Marshal(planCountsJSON{
		MGJN:  p.ByMethod[props.MGJN],
		NLJN:  p.ByMethod[props.NLJN],
		HSJN:  p.ByMethod[props.HSJN],
		Total: p.Total(),
	})
}

// AppendJSON appends the MarshalJSON form as the service's indented encoder
// lays it out (see JSONObject): the planCountsJSON fields in tag order.
// serialize_test.go holds it byte-equal to json.MarshalIndent and
// round-trips it through UnmarshalJSON.
func (p PlanCounts) AppendJSON(dst []byte, depth int) []byte {
	o := OpenJSONObject(dst, depth)
	o.Int("mgjn", int64(p.ByMethod[props.MGJN]))
	o.Int("nljn", int64(p.ByMethod[props.NLJN]))
	o.Int("hsjn", int64(p.ByMethod[props.HSJN]))
	o.Int("total", int64(p.Total()))
	return o.Close()
}

// JSONObject appends one JSON object laid out as json.Encoder with
// SetIndent("", "  ") lays it out: each field on its own line, two spaces
// per nesting level, commas between fields, the closing brace back at the
// opening brace's depth, and "{}" for an object without fields. It is the
// one writer of that layout: the service's response appenders add their
// value kinds on top of it.
type JSONObject struct {
	B      []byte // the output so far
	Depth  int    // nesting depth of the opening brace; the fields sit one deeper
	fields int
}

// OpenJSONObject appends the opening brace of an object at depth.
func OpenJSONObject(dst []byte, depth int) JSONObject {
	return JSONObject{B: append(dst, '{'), Depth: depth}
}

// Key starts a field: the comma after the previous one, then on a new line
// the quoted key (a tag, which needs no escaping) and ": ". The caller
// appends the value to B.
func (o *JSONObject) Key(k string) {
	if o.fields > 0 {
		o.B = append(o.B, ',')
	}
	o.fields++
	o.B = append(append(append(AppendJSONNewline(o.B, o.Depth+1), '"'), k...), `": `...)
}

// Int appends an integer field.
func (o *JSONObject) Int(k string, v int64) {
	o.Key(k)
	o.B = strconv.AppendInt(o.B, v, 10)
}

// Close appends the closing brace and returns the output.
func (o *JSONObject) Close() []byte {
	if o.fields == 0 {
		return append(o.B, '}')
	}
	return append(AppendJSONNewline(o.B, o.Depth), '}')
}

// AppendJSONNewline appends a line break and depth two-space indents: the
// start of a line in the encoder's layout (an array element, say).
func AppendJSONNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	return dst
}

// UnmarshalJSON accepts the MarshalJSON form (the total is recomputed, not
// trusted).
func (p *PlanCounts) UnmarshalJSON(data []byte) error {
	var j planCountsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	p.ByMethod[props.MGJN] = j.MGJN
	p.ByMethod[props.NLJN] = j.NLJN
	p.ByMethod[props.HSJN] = j.HSJN
	return nil
}

type timeModelJSON struct {
	Tinst float64 `json:"tinst"`
	MGJN  float64 `json:"c_mgjn"`
	NLJN  float64 `json:"c_nljn"`
	HSJN  float64 `json:"c_hsjn"`
	C0    float64 `json:"c0"`
}

// MarshalJSON renders the time model with named per-method constants — the
// wire form of /v1/model and the -model-file registry persistence.
func (m TimeModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(timeModelJSON{
		Tinst: m.Tinst,
		MGJN:  m.C[props.MGJN],
		NLJN:  m.C[props.NLJN],
		HSJN:  m.C[props.HSJN],
		C0:    m.C0,
	})
}

// UnmarshalJSON accepts the MarshalJSON form.
func (m *TimeModel) UnmarshalJSON(data []byte) error {
	var j timeModelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	m.Tinst = j.Tinst
	m.C[props.MGJN] = j.MGJN
	m.C[props.NLJN] = j.NLJN
	m.C[props.HSJN] = j.HSJN
	m.C0 = j.C0
	return nil
}

type joinCountModelJSON struct {
	Tinst float64 `json:"tinst"`
	Cj    float64 `json:"cj"`
	C0    float64 `json:"c0"`
}

// MarshalJSON renders the join-count baseline model, so both model kinds
// round-trip through -model-file and /v1/model the same way.
func (m JoinCountModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(joinCountModelJSON{Tinst: m.Tinst, Cj: m.Cj, C0: m.C0})
}

// UnmarshalJSON accepts the MarshalJSON form.
func (m *JoinCountModel) UnmarshalJSON(data []byte) error {
	var j joinCountModelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	m.Tinst = j.Tinst
	m.Cj = j.Cj
	m.C0 = j.C0
	return nil
}

// String renders the estimate on one line: counts, enumerated joins, the
// estimator's own elapsed time, and — when a model produced them — the
// compilation-time and memory predictions.
func (e *Estimate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plans %v | %d joins (%d pairs)", e.Counts, e.Joins, e.Pairs)
	fmt.Fprintf(&b, " | estimation took %v", e.Elapsed)
	if e.PredictedTime > 0 {
		fmt.Fprintf(&b, " | predicted compile %v", e.PredictedTime)
	}
	if e.PredictedMemoryBytes > 0 {
		fmt.Fprintf(&b, " | predicted memory >= %d B", e.PredictedMemoryBytes)
	}
	if e.PredictedPeakBytes > 0 {
		fmt.Fprintf(&b, " | predicted peak %d B (measured %d B)", e.PredictedPeakBytes, e.MeasuredPeakBytes)
	}
	return b.String()
}

type estimateJSON struct {
	Counts               PlanCounts `json:"counts"`
	Joins                int        `json:"joins"`
	Pairs                int        `json:"pairs"`
	Blocks               int        `json:"blocks"`
	CandidatesVisited    int        `json:"candidates_visited"`
	CandidatesSkipped    int        `json:"candidates_skipped"`
	ElapsedNS            int64      `json:"elapsed_ns"`
	PredictedTimeNS      int64      `json:"predicted_time_ns,omitempty"`
	PredictedMemoryBytes int64      `json:"predicted_memory_bytes"`
	PredictedBytes       int64      `json:"predicted_bytes,omitempty"`
	PeakBytes            int64      `json:"peak_bytes,omitempty"`
}

// MarshalJSON renders the estimate for service responses: plan counts,
// join totals, block count, and durations in integer nanoseconds.
func (e *Estimate) MarshalJSON() ([]byte, error) {
	return json.Marshal(estimateJSON{
		Counts:               e.Counts,
		Joins:                e.Joins,
		Pairs:                e.Pairs,
		Blocks:               e.Blocks,
		CandidatesVisited:    e.CandidatesVisited,
		CandidatesSkipped:    e.CandidatesSkipped,
		ElapsedNS:            e.Elapsed.Nanoseconds(),
		PredictedTimeNS:      e.PredictedTime.Nanoseconds(),
		PredictedMemoryBytes: e.PredictedMemoryBytes,
		PredictedBytes:       e.PredictedPeakBytes,
		PeakBytes:            e.MeasuredPeakBytes,
	})
}

// AppendJSON appends the MarshalJSON form laid out as PlanCounts.AppendJSON
// lays out the counts: the estimateJSON fields in tag order, omitempty ones
// left out at zero. serialize_test.go holds it byte-equal to
// json.MarshalIndent and round-trips it through UnmarshalJSON.
func (e *Estimate) AppendJSON(dst []byte, depth int) []byte {
	o := OpenJSONObject(dst, depth)
	o.Key("counts")
	o.B = e.Counts.AppendJSON(o.B, depth+1)
	o.Int("joins", int64(e.Joins))
	o.Int("pairs", int64(e.Pairs))
	o.Int("blocks", int64(e.Blocks))
	o.Int("candidates_visited", int64(e.CandidatesVisited))
	o.Int("candidates_skipped", int64(e.CandidatesSkipped))
	o.Int("elapsed_ns", e.Elapsed.Nanoseconds())
	if e.PredictedTime != 0 {
		o.Int("predicted_time_ns", e.PredictedTime.Nanoseconds())
	}
	o.Int("predicted_memory_bytes", e.PredictedMemoryBytes)
	if e.PredictedPeakBytes != 0 {
		o.Int("predicted_bytes", e.PredictedPeakBytes)
	}
	if e.MeasuredPeakBytes != 0 {
		o.Int("peak_bytes", e.MeasuredPeakBytes)
	}
	return o.Close()
}

// UnmarshalJSON accepts the MarshalJSON form. The wire form leaves out
// Entries and PropertyBytes, which decode to zero: a decoded Estimate is the
// client's view of the totals, not a calibration record.
func (e *Estimate) UnmarshalJSON(data []byte) error {
	var j estimateJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Estimate{
		Counts:               j.Counts,
		Joins:                j.Joins,
		Pairs:                j.Pairs,
		Blocks:               j.Blocks,
		CandidatesVisited:    j.CandidatesVisited,
		CandidatesSkipped:    j.CandidatesSkipped,
		Elapsed:              time.Duration(j.ElapsedNS),
		PredictedTime:        time.Duration(j.PredictedTimeNS),
		PredictedMemoryBytes: j.PredictedMemoryBytes,
		PredictedPeakBytes:   j.PredictedBytes,
		MeasuredPeakBytes:    j.PeakBytes,
	}
	return nil
}
