package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
)

// Pairs is the number of unordered join pairs a bushy dynamic-programming
// enumerator without Cartesian products considers for n tables joined in the
// given shape: the closed forms of Ono & Lohman (VLDB 1990). They come from
// counting connected subgraphs, not from the optimizer under test.
func Pairs(k Kind, n int) int {
	switch k {
	case Chain:
		return (n*n*n - n) / 6
	case Star:
		return (n - 1) << (n - 2)
	case Clique:
		return (pow(3, n) - pow(2, n+1) + 1) / 2
	}
	return 0
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}

// value finds the first `"key":` in a JSON body and returns the body from
// the start of its value. It scans bytes instead of decoding, so that the
// check inside the measured window allocates nothing and costs well under a
// microsecond per field, and it accepts any whitespace, so that a change of
// the response's indentation does not fail the answer key.
func value(body []byte, key string) []byte {
	for rest := body; ; {
		i := bytes.Index(rest, []byte(key))
		if i < 0 {
			return nil
		}
		after := rest[i+len(key):]
		if i == 0 || rest[i-1] != '"' || len(after) == 0 || after[0] != '"' {
			rest = after
			continue
		}
		j := 1
		for j < len(after) && (after[j] == ' ' || after[j] == ':') {
			j++
		}
		return after[j:]
	}
}

// Field returns the non-negative integer value of the first `"key":` in a
// JSON body.
func Field(body []byte, key string) (int, bool) {
	v, n, digits := value(body, key), 0, 0
	for ; digits < len(v) && v[digits] >= '0' && v[digits] <= '9'; digits++ {
		n = n*10 + int(v[digits]-'0')
	}
	return n, digits > 0
}

// Check compares one response with the answer key of the structure it was
// asked about. With one predicate per edge and no column shared between
// edges, at level high on a serial catalog:
//
//	pairs = the closed form, joins = 2*pairs (both orientations), and one
//	hash join per enumerated join, so HSJN plans = 2*pairs,
//
// for /v1/estimate (estimated counts) and /v1/optimize (generated counts)
// alike. Estimate responses must also carry the expected "cached" value;
// optimize responses must carry a plan.
func Check(w Workload, s Structure, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	want := Pairs(s.Kind, s.N())
	if hsjn, ok := Field(body, "hsjn"); !ok || hsjn != 2*want {
		return fmt.Errorf("%s-%d: hsjn %d (found %v), want %d", s.Kind, s.N(), hsjn, ok, 2*want)
	}
	if w.Path == "/v1/optimize" {
		if p := value(body, "plan"); len(p) < 2 || p[0] != '"' || p[1] == '"' {
			return fmt.Errorf("%s-%d: optimize response without a plan", s.Kind, s.N())
		}
		return nil
	}
	if pairs, ok := Field(body, "pairs"); !ok || pairs != want {
		return fmt.Errorf("%s-%d: pairs %d (found %v), want %d", s.Kind, s.N(), pairs, ok, want)
	}
	if joins, ok := Field(body, "joins"); !ok || joins != 2*want {
		return fmt.Errorf("%s-%d: joins %d (found %v), want %d", s.Kind, s.N(), joins, ok, 2*want)
	}
	if cached := bytes.HasPrefix(value(body, "cached"), []byte("true")); cached != w.Cached {
		return fmt.Errorf("%s-%d: cached %v, want %v", s.Kind, s.N(), cached, w.Cached)
	}
	return nil
}

// timeFields are the response fields that depend on the clock: measured
// durations, and everything priced by a model the server refits online from
// measured durations. The digest zeroes them.
var timeFields = map[string]bool{
	"elapsed_ns":        true,
	"predicted_time_ns": true,
	"predicted_ns":      true,
	"predicted_bytes":   true,
	"model_version":     true,
}

// Digest hashes the structural fields of a sequence of responses, so that
// two runs (or two commits) can be shown to answer identically at a glance.
type Digest struct{ h hash.Hash }

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Add folds one response body in, with its time fields zeroed.
func (d *Digest) Add(body []byte) error {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("bench: response is not JSON: %w", err)
	}
	zeroTimeFields(v)
	// Marshal writes map keys sorted, so the encoding is canonical.
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
	return nil
}

// Sum returns the digest so far as hex.
func (d *Digest) Sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

func zeroTimeFields(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			if timeFields[k] {
				x[k] = 0
			} else {
				zeroTimeFields(c)
			}
		}
	case []any:
		for _, c := range x {
			zeroTimeFields(c)
		}
	}
}
