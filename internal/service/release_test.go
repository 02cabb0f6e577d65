package service

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cote/internal/calib"
	"cote/internal/props"
)

// compileShapes registers eight tables a_i, with a join column j_k for every
// other table k, and returns chains of 5 and 7 tables and stars of 7 over
// them: the shapes of the benchmark's compile workload.
func compileShapes(t *testing.T, srv *Server) []string {
	t.Helper()
	const n = 8
	def := CatalogDef{Name: "shapes"}
	for i := 0; i < n; i++ {
		td := TableDef{Name: fmt.Sprintf("a_%d", i), Rows: float64(20000 + 7000*i),
			Columns: []ColumnDef{{Name: "id", NDV: float64(20000 + 7000*i)}, {Name: "f", NDV: 20}}}
		for k := 0; k < n; k++ {
			if k != i {
				td.Columns = append(td.Columns, ColumnDef{Name: fmt.Sprintf("j_%d", k), NDV: float64(200 + 10*k)})
			}
		}
		def.Tables = append(def.Tables, td)
	}
	if _, err := srv.Registry().Register(def); err != nil {
		t.Fatal(err)
	}
	query := func(tables []int, edges [][2]int) string {
		from := make([]string, len(tables))
		for i, tb := range tables {
			from[i] = fmt.Sprintf("a_%d t%d", tb, tb)
		}
		preds := []string{fmt.Sprintf("t%d.f = 1", tables[0])}
		for _, e := range edges {
			preds = append(preds, fmt.Sprintf("t%d.j_%d = t%d.j_%d", e[0], e[1], e[1], e[0]))
		}
		return fmt.Sprintf("SELECT t%d.id FROM %s WHERE %s", tables[0], strings.Join(from, ", "), strings.Join(preds, " AND "))
	}
	var out []string
	for o := 0; o < n; o++ {
		for _, size := range []int{5, 7} {
			tables := make([]int, size)
			var chain, star [][2]int
			for i := range tables {
				tables[i] = (o + i) % n
				if i > 0 {
					chain = append(chain, [2]int{tables[i-1], tables[i]})
					star = append(star, [2]int{tables[0], tables[i]})
				}
			}
			out = append(out, query(tables, chain))
			if size == 7 {
				out = append(out, query(tables, star))
			}
		}
	}
	return out
}

// A server seeded with the serial release proportions reports them after
// 20 passes of compiles: the online loop only rescales them and refits C0.
// Each refit rescales the seed's constants themselves, so the ratio is one
// rounding of each constant away from the shipped one — within 4 ulps, the
// bound calib.TestRecalibrateKeepsIncumbentRatio holds — however many
// refits ran. The seed is the release model with every constant scaled 4x
// (the same ratio bit for bit), so the first refit installs; each pass ends
// with a forced refit, POST /v1/model {"recalibrate": true}, so refits run
// whatever the drift.
func TestReleaseProportionsSurviveCompiles(t *testing.T) {
	rel, err := calib.Release(1)
	if err != nil {
		t.Fatal(err)
	}
	seed := *rel.CurrentModel()
	for m := range seed.C {
		seed.C[m] *= 4
	}
	seed.C0 *= 4
	r := seed.Ratio()
	if r != rel.CurrentModel().Ratio() {
		t.Fatalf("4x seed ratio %v, the release's %v", r, rel.CurrentModel().Ratio())
	}
	want := [3]float64{r[props.MGJN], r[props.NLJN], r[props.HSJN]} // the wire order
	srv := New(Config{Workers: 1, Models: seeded(&seed)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shapes := compileShapes(t, srv)
	for pass := 0; pass < 20; pass++ {
		for _, sql := range shapes {
			if resp, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Catalog: "shapes", SQL: sql, Level: "high"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("optimize %s: %d %v", sql, resp.StatusCode, body)
			}
		}
		// The refit installs a version or loses to the incumbent at the
		// hysteresis gate; any other refusal is a failure.
		resp, body := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Recalibrate: true})
		if resp.StatusCode != http.StatusOK && !strings.Contains(fmt.Sprint(body["error"]), calib.ErrNoImprovement.Error()) {
			t.Fatalf("pass %d: recalibrate: %d %v", pass, resp.StatusCode, body)
		}
	}
	_, body := getJSON(t, ts.URL+"/v1/model")
	got := body["ratio"].([]any)
	for m, w := range want {
		if d := math.Abs(got[m].(float64) - w); d > 4*(math.Nextafter(w, math.Inf(1))-w) {
			t.Errorf("ratio %v after %d compiles, the release's %v", got, 20*len(shapes), want)
		}
	}
	st := srv.Calibrator().Stats()
	if st.Recalibrations+st.Rejected+st.Failures == 0 {
		t.Fatalf("no refit ran: %+v", st)
	}
	if st.Recalibrations == 0 {
		t.Fatalf("no refit installed over the 4x seed: %+v", st)
	}
	t.Logf("v%v (%v), calibration %+v", body["version"], body["source"], st)
}
