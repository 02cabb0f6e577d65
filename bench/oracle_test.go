package bench

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"testing"

	"cote/internal/service"
)

// bruteForcePairs counts, over all subsets of an n-table graph, the
// unordered pairs of disjoint connected subgraphs joined by at least one
// edge: what a bushy enumerator without Cartesian products must consider.
func bruteForcePairs(k Kind, n int) int {
	tables := make([]int, n)
	for i := range tables {
		tables[i] = i
	}
	adj := make([]uint, n)
	for _, e := range (Structure{Kind: k, Tables: tables}).Edges() {
		adj[e[0]] |= 1 << e[1]
		adj[e[1]] |= 1 << e[0]
	}
	neighbours := func(s uint) uint {
		var nb uint
		for i := 0; i < n; i++ {
			if s&(1<<i) != 0 {
				nb |= adj[i]
			}
		}
		return nb
	}
	connected := func(s uint) bool {
		seen := s & -s
		for {
			grown := seen | neighbours(seen)&s
			if grown == seen {
				return seen == s
			}
			seen = grown
		}
	}
	pairs := 0
	for a := uint(1); a < 1<<n; a++ {
		if !connected(a) {
			continue
		}
		for b := a + 1; b < 1<<n; b++ {
			if a&b == 0 && neighbours(a)&b != 0 && connected(b) {
				pairs++
			}
		}
	}
	return pairs
}

func TestClosedFormsMatchBruteForce(t *testing.T) {
	for _, k := range []Kind{Chain, Star, Clique} {
		for n := 2; n <= 10; n++ {
			if got, want := Pairs(k, n), bruteForcePairs(k, n); got != want {
				t.Errorf("Pairs(%s, %d) = %d, brute force counts %d", k, n, got, want)
			}
		}
	}
}

// serve sends one request to a fresh in-process server.
func serve(t *testing.T, srv *service.Server, w Workload, r Request) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", w.Path, bytes.NewReader(r.Body)))
	return rec.Code, rec.Body.Bytes()
}

func newServer(t *testing.T) *service.Server {
	t.Helper()
	srv := service.New(service.Config{})
	if _, err := srv.Registry().Register(Catalog()); err != nil {
		t.Fatal(err)
	}
	return srv
}

func replaceField(body []byte, key string, delta int) []byte {
	v, ok := Field(body, key)
	if !ok {
		panic("no field " + key)
	}
	old := []byte(`"` + key + `": ` + strconv.Itoa(v))
	if !bytes.Contains(body, old) {
		panic("field " + key + " not spelled as expected")
	}
	return bytes.Replace(body, old, []byte(`"`+key+`": `+strconv.Itoa(v+delta)), 1)
}

func TestCheckAcceptsRealAndRejectsCorrupted(t *testing.T) {
	for _, w := range Workloads {
		set := mustGenerate(t, w.Name, 11)
		srv := newServer(t)
		r := set.Pass[0]
		s := set.Structures[r.Structure]
		status, body := serve(t, srv, w, r)
		if w.Cached {
			// The first request of a structure fills the cache.
			status, body = serve(t, srv, w, r)
		}
		if err := Check(w, s, status, body); err != nil {
			t.Fatalf("%s: real response rejected: %v\n%s", w.Name, err, body)
		}
		if Check(w, s, 500, body) == nil {
			t.Errorf("%s: status 500 accepted", w.Name)
		}
		if Check(w, s, status, replaceField(body, "hsjn", 1)) == nil {
			t.Errorf("%s: corrupted hsjn accepted", w.Name)
		}
		if w.Path == "/v1/optimize" {
			noPlan := bytes.Replace(body, value(body, "plan")[:8], []byte(`"",     `), 1)
			if Check(w, s, status, noPlan) == nil {
				t.Errorf("%s: empty plan accepted", w.Name)
			}
			continue
		}
		if Check(w, s, status, replaceField(body, "pairs", 1)) == nil {
			t.Errorf("%s: corrupted pairs accepted", w.Name)
		}
		if Check(w, s, status, replaceField(body, "joins", -2)) == nil {
			t.Errorf("%s: corrupted joins accepted", w.Name)
		}
		flipped := bytes.Replace(body, []byte(`"cached": true`), []byte(`"cached": false`), 1)
		if !w.Cached {
			flipped = bytes.Replace(body, []byte(`"cached": false`), []byte(`"cached": true`), 1)
		}
		if Check(w, s, status, flipped) == nil {
			t.Errorf("%s: flipped cached flag accepted", w.Name)
		}
	}
}

func TestDigestIgnoresTimeFieldsOnly(t *testing.T) {
	w, _ := WorkloadByName("cold_sparse")
	set := mustGenerate(t, w.Name, 11)
	_, body := serve(t, newServer(t), w, set.Pass[0])
	sum := func(b []byte) string {
		d := NewDigest()
		if err := d.Add(b); err != nil {
			t.Fatal(err)
		}
		return d.Sum()
	}
	if sum(body) != sum(replaceField(body, "elapsed_ns", 12345)) {
		t.Error("digest depends on elapsed_ns")
	}
	if sum(body) == sum(replaceField(body, "candidates_visited", 1)) {
		t.Error("digest ignores candidates_visited")
	}
	// The same seed must give the same responses from a fresh server.
	_, again := serve(t, newServer(t), w, mustGenerate(t, w.Name, 11).Pass[0])
	if sum(body) != sum(again) {
		t.Error("two fresh servers answered the same request differently")
	}
}
