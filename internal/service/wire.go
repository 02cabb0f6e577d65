package service

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"

	"cote/internal/core"
)

// The estimate and optimize response bodies — EstimateResponse and
// OptimizeResponse — are appended by hand, writing exactly the bytes
// json.NewEncoder with SetIndent("", "  ") writes for the same value: field
// order, omitempty, HTML escaping, float format and the trailing newline.
// The encoder reflects over the response, runs each Marshaler's own
// json.Marshal, re-validates and compacts what they return, then re-indents
// the whole buffer: most of what answering a cached estimate costs outside
// the pipeline. wire_test.go pins both appenders against the encoder. Every
// other body (batch estimates, errors, catalogs, model, metrics, progress,
// healthz, calibrate) still goes through the encoder, into the same pooled
// buffer.

// bodyPool recycles response buffers; one that grew past maxPooledBody (a
// large batch) is left to the collector instead of being pinned.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledBody = 64 << 10

// appendBody appends v's response body: by hand for the estimate and
// optimize responses, through the encoder for anything else.
func appendBody(dst []byte, v any) ([]byte, error) {
	switch r := v.(type) {
	case *EstimateResponse:
		if r != nil {
			return appendEstimateResponse(dst, r), nil
		}
	case *OptimizeResponse:
		if r != nil {
			return appendOptimizeResponse(dst, r)
		}
	}
	return appendEncoded(dst, v)
}

// appendEncoded is the encoder the appenders replace, for every other body.
func appendEncoded(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func appendEstimateResponse(dst []byte, r *EstimateResponse) []byte {
	o := openObject(dst, 0)
	o.string("catalog", r.Catalog)
	o.string("level", r.Level)
	o.bool("cached", r.Cached)
	if r.ModelVersion != 0 {
		o.Int("model_version", int64(r.ModelVersion))
	}
	o.estimate("estimate", r.Estimate)
	return append(o.Close(), '\n')
}

func appendOptimizeResponse(dst []byte, r *OptimizeResponse) ([]byte, error) {
	o := openObject(dst, 0)
	o.string("catalog", r.Catalog)
	if r.Level != "" {
		o.string("level", r.Level)
	}
	o.Key("admission")
	if a := r.Admission; a == nil {
		o.B = append(o.B, "null"...)
	} else {
		o.B = appendAdmission(o.B, a, o.Depth+1)
	}
	if r.Plan != "" {
		o.string("plan", r.Plan)
	}
	// Cost and rows are the only floats on the statement routes, and the
	// only values the encoder can refuse (±Inf, NaN).
	if err := o.float("cost", r.Cost); err != nil {
		return o.B, err
	}
	if err := o.float("rows", r.Rows); err != nil {
		return o.B, err
	}
	if r.ElapsedNS != 0 {
		o.Int("elapsed_ns", r.ElapsedNS)
	}
	o.Key("plan_counts")
	o.B = r.Counts.AppendJSON(o.B, o.Depth+1)
	o.strings("budget_aborted", r.BudgetAborted)
	o.strings("mem_aborted", r.MemAborted)
	if r.PeakBytes != 0 {
		o.Int("peak_bytes", r.PeakBytes)
	}
	if r.OverloadRungs != 0 {
		o.Int("overload_rungs", int64(r.OverloadRungs))
	}
	return append(o.Close(), '\n'), nil
}

func appendAdmission(dst []byte, a *AdmissionDecision, depth int) []byte {
	o := openObject(dst, depth)
	o.string("action", string(a.Action))
	o.string("requested_level", a.RequestedLevel)
	if a.AdmittedLevel != "" {
		o.string("admitted_level", a.AdmittedLevel)
	}
	if a.PredictedNS != 0 {
		o.Int("predicted_ns", a.PredictedNS)
	}
	if a.BudgetNS != 0 {
		o.Int("budget_ns", a.BudgetNS)
	}
	if a.PredictedBytes != 0 {
		o.Int("predicted_bytes", a.PredictedBytes)
	}
	if a.MemBudgetBytes != 0 {
		o.Int("mem_budget_bytes", a.MemBudgetBytes)
	}
	return o.Close()
}

// object is core's indented object writer plus the value kinds the
// response structs hold beyond integers.
type object struct{ core.JSONObject }

func openObject(dst []byte, depth int) object {
	return object{core.OpenJSONObject(dst, depth)}
}

func (o *object) string(k, v string) {
	o.Key(k)
	o.B = appendString(o.B, v)
}

func (o *object) bool(k string, v bool) {
	o.Key(k)
	o.B = strconv.AppendBool(o.B, v)
}

// estimate appends an estimate field, null when e is nil.
func (o *object) estimate(k string, e *core.Estimate) {
	o.Key(k)
	if e == nil {
		o.B = append(o.B, "null"...)
		return
	}
	o.B = e.AppendJSON(o.B, o.Depth+1)
}

// float appends an omitempty float64 field.
func (o *object) float(k string, v float64) error {
	if v == 0 {
		return nil
	}
	o.Key(k)
	var err error
	o.B, err = appendFloat(o.B, v)
	return err
}

// strings appends an omitempty []string field.
func (o *object) strings(k string, vs []string) {
	if len(vs) == 0 {
		return
	}
	o.Key(k)
	o.B = append(o.B, '[')
	for i, v := range vs {
		if i > 0 {
			o.B = append(o.B, ',')
		}
		o.B = appendString(core.AppendJSONNewline(o.B, o.Depth+2), v)
	}
	o.B = append(core.AppendJSONNewline(o.B, o.Depth+1), ']')
}

const hex = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: '"' and '\\' backslashed, \b \f \n \r \t by name, other
// control bytes and <, >, & as \u00XX, U+2028 and U+2029 as \u202X, and
// each byte of invalid UTF-8 as the escaped U+FFFD. FuzzWireString holds it to
// json.Marshal.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// round-tripping decimal, in exponent form below 1e-6 and from 1e21 up
// (with a one-digit negative exponent unpadded). ±Inf and NaN are refused
// with the encoder's own error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
