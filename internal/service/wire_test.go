package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cote/internal/core"
	"cote/internal/testutil"
)

// oracleEncode is the body writer the appenders replaced, verbatim: the
// bytes every statement route must keep writing.
func oracleEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// hostilePieces are what random strings are built from: everything the
// encoder escapes or rewrites — quotes, backslashes, every control byte by
// name or number, the HTML-sensitive <>&, U+2028/U+2029, invalid UTF-8
// (lone continuation and lead bytes, a truncated sequence, an encoded
// surrogate, an overlong form) — next to plain and multi-byte text it
// passes through.
var hostilePieces = []string{
	"", "tpch", "inner2", "SELECT c_name FROM customer", " ", "'", "/",
	`"`, `\`, `\"`, "\x00", "\b", "\f", "\n", "\r", "\t", "\x01", "\x1f", "\x7f",
	"<", ">", "&", "<script>", "&amp;",
	"\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80\xa7", "\xe2\x80\xaa",
	"\x80", "\xbf", "\xc3", "\xff", "\xe2\x80", "\xed\xa0\x80", "\xc0\xaf", "\xf4\x90\x80\x80",
	"\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac", "\xf0\x9f\x98\x80", "\xef\xbf\xbd",
}

func randomString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(hostilePieces[rng.Intn(len(hostilePieces))])
	}
	if rng.Intn(8) == 0 {
		b.WriteByte(byte(rng.Intn(256)))
	}
	return b.String()
}

// edgeFloats straddle the encoder's switch to exponent form (below 1e-6,
// from 1e21 up) on both signs, plus zeros, subnormals, the largest float and
// the values it refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 123.456, 1e20, 1e21, -1e21, 1e22, 1e-6, -1e-6, 1e-7, 1.5e-7,
	math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 1e100, 1e-100, 1e-10, 123456789012345678,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return 0
	case 2:
		return float64(rng.Int63n(1 << 40))
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

// randomInt is zero a third of the time, so each omitempty field is seen
// both omitted and written.
func randomInt(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(2000) - 1000
	}
	return rng.Int63()
}

func randomEstimate(rng *rand.Rand) *core.Estimate {
	if rng.Intn(4) == 0 {
		return nil
	}
	e := &core.Estimate{
		Joins:                int(randomInt(rng)),
		Pairs:                int(randomInt(rng)),
		Blocks:               int(randomInt(rng)),
		CandidatesVisited:    int(randomInt(rng)),
		CandidatesSkipped:    int(randomInt(rng)),
		Elapsed:              time.Duration(randomInt(rng)),
		PredictedTime:        time.Duration(randomInt(rng)),
		PredictedMemoryBytes: randomInt(rng),
		PredictedPeakBytes:   randomInt(rng),
		MeasuredPeakBytes:    randomInt(rng),
	}
	for m := range e.Counts.ByMethod {
		e.Counts.ByMethod[m] = int(randomInt(rng))
	}
	return e
}

func randomStrings(rng *rand.Rand) []string {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = randomString(rng)
	}
	return out
}

func randomEstimateResponse(rng *rand.Rand) *EstimateResponse {
	return &EstimateResponse{
		Catalog:      randomString(rng),
		Level:        randomString(rng),
		Cached:       rng.Intn(2) == 0,
		ModelVersion: int(randomInt(rng)),
		Estimate:     randomEstimate(rng),
	}
}

func randomOptimizeResponse(rng *rand.Rand) *OptimizeResponse {
	r := &OptimizeResponse{
		Catalog:       randomString(rng),
		Level:         randomString(rng),
		Plan:          randomString(rng),
		Cost:          randomFloat(rng),
		Rows:          randomFloat(rng),
		ElapsedNS:     randomInt(rng),
		BudgetAborted: randomStrings(rng),
		MemAborted:    randomStrings(rng),
		PeakBytes:     randomInt(rng),
		OverloadRungs: int(randomInt(rng)),
	}
	for m := range r.Counts.ByMethod {
		r.Counts.ByMethod[m] = int(randomInt(rng))
	}
	if rng.Intn(4) > 0 {
		r.Admission = &AdmissionDecision{
			Action:         AdmissionAction(randomString(rng)),
			RequestedLevel: randomString(rng),
			AdmittedLevel:  randomString(rng),
			PredictedNS:    randomInt(rng),
			BudgetNS:       randomInt(rng),
			PredictedBytes: randomInt(rng),
			MemBudgetBytes: randomInt(rng),
		}
	}
	return r
}

func randomResponse(rng *rand.Rand) any {
	if rng.Intn(2) == 0 {
		return randomEstimateResponse(rng)
	}
	return randomOptimizeResponse(rng)
}

// checkBody compares appendBody with the oracle on v: the same bytes, or
// the same error.
func checkBody(t *testing.T, v any) {
	t.Helper()
	want, werr := oracleEncode(v)
	got, gerr := appendBody([]byte("prefix"), v)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%T: error %v, encoder error %v", v, gerr, werr)
		}
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%T %+v:\n%q\nencoder:\n%q", v, v, got, want)
	}
}

// fillAll sets every field under v non-zero, through structs, pointers,
// slices and arrays, so an appender that misses a field of its type — one
// added later, say — differs from the encoder. An estimate is set whole
// (its blocks hold unexported state; core's own tests cover its fields).
func fillAll(v reflect.Value, est *core.Estimate) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.Type() == reflect.TypeOf(est) {
			v.Set(reflect.ValueOf(est))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(v.Elem(), est)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillAll(v.Field(i), est)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillAll(v.Index(i), est)
		}
	case reflect.String:
		v.SetString("x<")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		panic(fmt.Sprintf("fillAll: no value for %s", v.Type()))
	}
}

// TestWireMatchesEncoder: the estimate and optimize appenders write the
// bytes the encoder writes, over seeded random responses built from hostile
// strings, edge floats, zero and set omitempty fields, nil admissions and
// estimates, and nil, empty and filled lists — over each type with every
// field set, and over real responses. The batch and error bodies, which
// stay on the encoder, are pinned on real responses too.
func TestWireMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkBody(t, randomResponse(rng))
	}
	for _, f := range edgeFloats {
		checkBody(t, &OptimizeResponse{Catalog: "c", Cost: f, Rows: -f})
	}
	est := &core.Estimate{Joins: 3, Pairs: 2, Elapsed: 9, PredictedTime: 8, PredictedMemoryBytes: 7, PredictedPeakBytes: 6, MeasuredPeakBytes: 5}
	for _, v := range []any{&EstimateResponse{}, &OptimizeResponse{}} {
		fillAll(reflect.ValueOf(v).Elem(), est)
		checkBody(t, v)
	}
	checkBody(t, &EstimateResponse{})
	checkBody(t, (*EstimateResponse)(nil))
	checkBody(t, map[string]string{"status": "ok"})
	checkBody(t, ErrorBody{Error: `parse: near "<" at 1`, Code: "bad_request"})

	srv := New(Config{Workers: 2, Models: seeded(testModel(1e-9))})
	ctx := context.Background()
	for _, sql := range []string{tpchQ3, tpchQ6} {
		est, err := srv.Estimate(ctx, EstimateRequest{Catalog: "tpch", SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		checkBody(t, est)
		batch, err := srv.EstimateBatch(ctx, EstimateBatchRequest{Catalog: "tpch", Statements: []string{sql, sql, "DELETE FROM t"}})
		if err != nil {
			t.Fatal(err)
		}
		checkBody(t, batch)
		opt, err := srv.Optimize(ctx, OptimizeRequest{Catalog: "tpch", SQL: sql, BudgetMS: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		checkBody(t, opt)
		rej, err := srv.Optimize(ctx, OptimizeRequest{Catalog: "tpch", SQL: sql, BudgetMS: -1, MemBudgetBytes: 1, OnOverBudget: "reject"})
		if err != nil {
			t.Fatal(err)
		}
		checkBody(t, rej)
	}
}

// FuzzWireString: the string appender quotes any input exactly as
// json.Marshal does.
func FuzzWireString(f *testing.F) {
	for _, p := range hostilePieces {
		f.Add(p)
	}
	f.Add("a\"b\\c\x00d<e>f&g\xe2\x80\xa8h\xffi")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}

// TestUnencodableResponseIs500: a response the encoder refuses is answered
// 500 internal with the reason, not with the route's own status and an
// empty body.
func TestUnencodableResponseIs500(t *testing.T) {
	srv := New(Config{Workers: 1})
	h := post(srv, func(context.Context, struct{}) (*OptimizeResponse, error) {
		return &OptimizeResponse{Catalog: "tpch", Cost: math.Inf(1)}, nil
	}, nil)
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader("{}")))
	body := rec.Body.String()
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body, `"code": "internal"`) ||
		!strings.Contains(body, "unsupported value: +Inf") {
		t.Fatalf("unencodable response answered %d %q, want 500 internal naming the value", rec.Code, body)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
	if got := srv.Metrics().Errors.Value(); got != 1 {
		t.Fatalf("errors counter %d, want 1", got)
	}
}

// headerWriter is a ResponseWriter that keeps only the status and the body
// length, so an allocation count sees only what the server allocates.
type headerWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) WriteHeader(status int)      { w.status = status }
func (w *headerWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestWriteJSONAllocs: writing an estimate response costs the header value
// net/http's Header.Set allocates and nothing else (the encoder took 12
// with this writer).
func TestWriteJSONAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts and drops sync.Pool puts")
	}
	srv := New(Config{Workers: 1})
	resp, err := srv.Estimate(context.Background(), EstimateRequest{Catalog: "tpch", SQL: tpchQ6})
	if err != nil {
		t.Fatal(err)
	}
	w := &headerWriter{h: make(http.Header)}
	got := testing.AllocsPerRun(100, func() { srv.writeJSON(w, http.StatusOK, resp) })
	if got > 1 {
		t.Errorf("writeJSON(estimate response) = %.0f allocs, want <= 1", got)
	}
}

// TestWriteJSONConcurrentBodies: goroutines writing different responses
// through the pooled buffers each get their own body, byte-equal to the
// encoder's. Run under -race.
func TestWriteJSONConcurrentBodies(t *testing.T) {
	srv := New(Config{Workers: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				v := randomResponse(rng)
				want, err := oracleEncode(v)
				if err != nil {
					continue
				}
				rec := httptest.NewRecorder()
				srv.writeJSON(rec, http.StatusOK, v)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("goroutine %d response %d: body %q, encoder %q", seed, i, rec.Body.Bytes(), want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestWireSurvivesBatchLargerThanPool: a body that outgrows the pooled
// buffer (and is therefore not pooled again) is written whole.
func TestWireSurvivesBatchLargerThanPool(t *testing.T) {
	r := &EstimateBatchResponse{Catalog: "tpch", Level: "inner2", Items: make([]BatchItem, 400)}
	for i := range r.Items {
		r.Items[i] = BatchItem{Fingerprint: fmt.Sprintf("%0256d", i), Error: "parse: x"}
	}
	want, err := oracleEncode(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= maxPooledBody {
		t.Fatalf("body of %d bytes does not exceed the pooled size %d", len(want), maxPooledBody)
	}
	rec := httptest.NewRecorder()
	New(Config{Workers: 1}).writeJSON(rec, http.StatusOK, r)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("large batch body differs from the encoder's")
	}
}
