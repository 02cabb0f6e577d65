package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cote/internal/props"
)

func TestPlanCountsSerialization(t *testing.T) {
	var p PlanCounts
	p.ByMethod[props.MGJN] = 12
	p.ByMethod[props.NLJN] = 34
	p.ByMethod[props.HSJN] = 5
	if got, want := p.String(), "MGJN 12, NLJN 34, HSJN 5 (total 51)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"mgjn":12,"nljn":34,"hsjn":5,"total":51}`; string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}
	var back PlanCounts
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip: %v != %v", back, p)
	}
}

func TestTimeModelSerialization(t *testing.T) {
	m := &TimeModel{Tinst: 2e-9, C0: 4200}
	m.C[props.MGJN] = 5
	m.C[props.NLJN] = 2
	m.C[props.HSJN] = 4
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"tinst":2e-9,"c_mgjn":5,"c_nljn":2,"c_hsjn":4,"c0":4200}`; string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}
	var back TimeModel
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *m {
		t.Fatalf("round trip: %+v != %+v", back, *m)
	}
	// The named fields (not array indices) are the wire contract: a
	// hand-written model must land on the right join methods.
	var hand TimeModel
	if err := json.Unmarshal([]byte(`{"tinst":1e-9,"c_nljn":7}`), &hand); err != nil {
		t.Fatal(err)
	}
	if hand.C[props.NLJN] != 7 || hand.C[props.MGJN] != 0 || hand.C[props.HSJN] != 0 {
		t.Fatalf("named-field decode: %+v", hand)
	}
}

func TestJoinCountModelSerialization(t *testing.T) {
	m := &JoinCountModel{Tinst: 1e-9, Cj: 123.5, C0: 9}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"tinst":1e-9,"cj":123.5,"c0":9}`; string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}
	var back JoinCountModel
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *m {
		t.Fatalf("round trip: %+v != %+v", back, *m)
	}
}

func TestEstimateSerialization(t *testing.T) {
	e := &Estimate{
		Joins: 10, Pairs: 6,
		Elapsed:              1500 * time.Microsecond,
		PredictedTime:        42 * time.Millisecond,
		PredictedMemoryBytes: 4096,
	}
	e.Counts.ByMethod[props.NLJN] = 7
	s := e.String()
	for _, want := range []string{"NLJN 7", "10 joins", "6 pairs", "predicted compile 42ms", "4096 B"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["predicted_time_ns"].(float64) != 42e6 {
		t.Fatalf("predicted_time_ns = %v", m["predicted_time_ns"])
	}
	if m["counts"].(map[string]any)["total"].(float64) != 7 {
		t.Fatalf("counts = %v", m["counts"])
	}
}

// randomEstimate draws an estimate whose every field is zero about a third
// of the time, so each omitempty field is seen both omitted and written.
func randomEstimate(rng *rand.Rand) *Estimate {
	n := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(1000) - 100
		}
		return rng.Int63() >> rng.Intn(63)
	}
	e := &Estimate{
		Joins:                int(n()),
		Pairs:                int(n()),
		Blocks:               int(n()),
		Entries:              int(n()),
		PropertyBytes:        int(n()),
		CandidatesVisited:    int(n()),
		CandidatesSkipped:    int(n()),
		Elapsed:              time.Duration(n()),
		PredictedTime:        time.Duration(n()),
		PredictedMemoryBytes: n(),
		PredictedPeakBytes:   n(),
		MeasuredPeakBytes:    n(),
	}
	for m := range e.Counts.ByMethod {
		e.Counts.ByMethod[m] = int(n())
	}
	return e
}

// TestAppendJSONMatchesEncoder: the appenders write exactly what the
// encoder writes for MarshalJSON indented at the same depth, and what they
// write decodes back to the value — so a tag renamed on one side fails here
// instead of drifting on the wire.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		e := randomEstimate(rng)
		depth := rng.Intn(5)
		prefix := strings.Repeat("  ", depth)

		want, err := json.MarshalIndent(e, prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		got := e.AppendJSON(nil, depth)
		if string(got) != string(want) {
			t.Fatalf("Estimate.AppendJSON(%+v, %d):\n%s\nencoder:\n%s", *e, depth, got, want)
		}
		var back Estimate
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		// The wire form leaves out the structural regressors.
		sent := *e
		sent.Entries, sent.PropertyBytes = 0, 0
		if !reflect.DeepEqual(back, sent) {
			t.Fatalf("round trip: %+v != %+v", back, sent)
		}

		want, err = json.MarshalIndent(e.Counts, prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = e.Counts.AppendJSON([]byte("x"), depth)[1:] // appends, does not overwrite
		if string(got) != string(want) {
			t.Fatalf("PlanCounts.AppendJSON(%v, %d):\n%s\nencoder:\n%s", e.Counts, depth, got, want)
		}
		var counts PlanCounts
		if err := json.Unmarshal(got, &counts); err != nil {
			t.Fatal(err)
		}
		if counts != e.Counts {
			t.Fatalf("round trip: %v != %v", counts, e.Counts)
		}
	}

	// An object without fields is "{}" at any depth, as the encoder writes it.
	o := OpenJSONObject([]byte("x"), 2)
	if got := string(o.Close()); got != "x{}" {
		t.Fatalf("empty JSONObject = %q, want %q", got, "x{}")
	}
}

// TestEstimateHoldsNoPointers pins that a cached estimate cannot reach
// the statement it was computed from: the service parses and rebuilds
// statements in pooled arenas that the next request overwrites, so every
// field of Estimate, at any depth, is a value.
func TestEstimateHoldsNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	check("Estimate", reflect.TypeOf(Estimate{}))
}
