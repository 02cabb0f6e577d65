// Package bench generates the benchmark's workloads and holds the answer
// key its responses are checked against. bench/coteload is the driver; see
// bench/README.md for the metrics, the workloads and why each was chosen.
//
// Everything here is a pure function of the seed: the same seed gives
// byte-identical request bodies, and the program under test sees only those
// bodies (plus the uploaded catalog), never the seed.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"cote/internal/fingerprint"
	"cote/internal/service"
	"cote/internal/sqlparser"
)

// CatalogName is the name the benchmark catalog is uploaded under.
const CatalogName = "bench12"

// NumTables is the size of the benchmark catalog.
const NumTables = 12

// Catalog is the 12-table serial catalog every workload runs against. Table
// a_i has one join column j_b per possible partner a_b, so an edge (i, b) is
// always spelled a_i.j_b = a_b.j_i and no column serves two edges: a shared
// column would let the optimizer's transitive closure add edges, and the
// closed forms in oracle.go would no longer describe the graph. Row counts
// differ per table so that structures over different tables fingerprint
// differently; join NDVs stay far below the row counts so that no join
// result shrinks to one row, where the card-one heuristic would admit
// Cartesian products the closed forms do not count.
func Catalog() service.CatalogDef {
	def := service.CatalogDef{Name: CatalogName}
	for i := 0; i < NumTables; i++ {
		t := service.TableDef{
			Name: "a_" + strconv.Itoa(i),
			Rows: float64(20000 + 7000*i),
			Columns: []service.ColumnDef{
				{Name: "id", NDV: float64(20000 + 7000*i)},
				{Name: "f", NDV: 20},
			},
		}
		for b := 0; b < NumTables; b++ {
			if b != i {
				t.Columns = append(t.Columns, service.ColumnDef{Name: "j_" + strconv.Itoa(b), NDV: float64(200 + 10*b)})
			}
		}
		// One index per table on one join column: index scans and an
		// interesting order take part in the compile path without touching
		// the HSJN count the answer key uses.
		next := (i + 1) % NumTables
		t.Indexes = []service.IndexDef{
			{Name: "a_" + strconv.Itoa(i) + "_pk", Unique: true, Columns: []string{"id"}},
			{Name: "a_" + strconv.Itoa(i) + "_ix", Columns: []string{"j_" + strconv.Itoa(next)}},
		}
		def.Tables = append(def.Tables, t)
	}
	return def
}

// Kind is the shape of a structure's join graph.
type Kind string

// The three join-graph shapes: chain and star are the sparse extreme, clique
// the dense one (Ono & Lohman).
const (
	Chain  Kind = "chain"
	Star   Kind = "star"
	Clique Kind = "clique"
)

// Structure is one join graph over catalog tables: what the fingerprint
// sees. Spellings of it differ in aliases, clause order and literals only.
type Structure struct {
	Kind Kind
	// Tables are catalog table numbers: the path order of a chain, hub first
	// for a star, any order for a clique.
	Tables []int
	// Filters flags, per position in Tables, a local predicate f = <literal>.
	// Position 0 always has one, so every spelling has a literal to vary.
	Filters []bool
}

// N is the number of tables joined.
func (s Structure) N() int { return len(s.Tables) }

// Edges returns the join edges as pairs of catalog table numbers.
func (s Structure) Edges() [][2]int {
	var e [][2]int
	t := s.Tables
	switch s.Kind {
	case Chain:
		for i := 0; i+1 < len(t); i++ {
			e = append(e, [2]int{t[i], t[i+1]})
		}
	case Star:
		for i := 1; i < len(t); i++ {
			e = append(e, [2]int{t[0], t[i]})
		}
	case Clique:
		for i := 0; i < len(t); i++ {
			for j := i + 1; j < len(t); j++ {
				e = append(e, [2]int{t[i], t[j]})
			}
		}
	}
	return e
}

// Class is one cost class of a workload: a shape, a size and its share of
// the structures.
type Class struct {
	Kind  Kind
	N     int
	Share int // out of 4
}

// Workload describes one benchmark workload. Each has a small, a medium and
// a large class in a 25/50/25 mix, so the median latency sits inside the
// medium class and the 99th percentile inside the large one; a 50/50 mix
// would put the median on the boundary between two modes.
type Workload struct {
	Name string
	// Path is the endpoint driven.
	Path string
	// Structures is the number of distinct fingerprints in the working set.
	Structures int
	// PassLen is the number of requests in one pass over the working set.
	PassLen int
	// Cached is the value every measured response's "cached" field must
	// have (estimate workloads only).
	Cached  bool
	Classes [3]Class
}

// Workloads are the benchmark's four workloads, in the order BENCHMARK.json
// lists them.
var Workloads = []Workload{
	{
		Name: "warm_repeat", Path: "/v1/estimate", Structures: 64, PassLen: 4096, Cached: true,
		Classes: [3]Class{{Chain, 6, 1}, {Chain, 10, 2}, {Star, 9, 1}},
	},
	{
		// 1536 fingerprints against the server's default 1024-entry LRU,
		// scanned cyclically: every lookup misses.
		Name: "cold_sparse", Path: "/v1/estimate", Structures: 1536, PassLen: 1536,
		Classes: [3]Class{{Chain, 6, 1}, {Chain, 10, 2}, {Star, 9, 1}},
	},
	{
		Name: "cold_dense", Path: "/v1/estimate", Structures: 1536, PassLen: 1536,
		Classes: [3]Class{{Clique, 5, 1}, {Clique, 6, 2}, {Clique, 7, 1}},
	},
	{
		Name: "compile", Path: "/v1/optimize", Structures: 256, PassLen: 256,
		Classes: [3]Class{{Chain, 5, 1}, {Chain, 7, 2}, {Star, 7, 1}},
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Request is one pre-built request: the body bytes sent and the structure
// it spells, which is what the answer key is computed from.
type Request struct {
	Body      []byte
	Structure int // index into Set.Structures
}

// Set is the generated input of one run.
type Set struct {
	Workload   Workload
	Structures []Structure
	// Pass is one pass over the working set, in the order sent. The driver
	// repeats it; the server keys nothing on request text, so a repeated
	// spelling costs what a new one would.
	Pass []Request
}

// Generate builds the workload's inputs from the seed. It parses and
// fingerprints every candidate structure with the program's own parser so
// that it can guarantee the structures are pairwise distinct to the
// server's cache; that is set-up work, outside the measured window.
func Generate(w Workload, seed int64) (*Set, error) {
	rng := rand.New(rand.NewSource(seed))
	entry, err := service.NewRegistry().Register(Catalog())
	if err != nil {
		return nil, fmt.Errorf("bench: catalog: %w", err)
	}
	set := &Set{Workload: w}
	seen := make(map[fingerprint.FP]bool, w.Structures)
	for _, c := range w.Classes {
		want := w.Structures * c.Share / 4
		for got, tries := 0, 0; got < want; tries++ {
			if tries > 100*want {
				return nil, fmt.Errorf("bench: %s: cannot find %d distinct %s-%d structures", w.Name, want, c.Kind, c.N)
			}
			s := randomStructure(rng, c)
			blk, err := sqlparser.Parse(Spell(rng, s), entry.Catalog)
			if err != nil {
				return nil, fmt.Errorf("bench: generated SQL does not parse: %w", err)
			}
			fp := fingerprint.Of(blk)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			set.Structures = append(set.Structures, s)
			got++
		}
	}
	// Interleave the classes: a pass must not run all small queries first.
	rng.Shuffle(len(set.Structures), func(i, j int) {
		set.Structures[i], set.Structures[j] = set.Structures[j], set.Structures[i]
	})
	set.Pass = make([]Request, 0, w.PassLen)
	for i := 0; i < w.PassLen; i++ {
		si := i % len(set.Structures)
		body := `{"catalog":"` + CatalogName + `","sql":` + strconv.Quote(Spell(rng, set.Structures[si])) + `,"level":"high"}`
		set.Pass = append(set.Pass, Request{Body: []byte(body), Structure: si})
	}
	if w.PassLen > len(set.Structures) {
		// Several spellings per structure: mix them so that neighbours in the
		// pass are unrelated.
		rng.Shuffle(len(set.Pass), func(i, j int) { set.Pass[i], set.Pass[j] = set.Pass[j], set.Pass[i] })
	}
	return set, nil
}

func randomStructure(rng *rand.Rand, c Class) Structure {
	s := Structure{Kind: c.Kind, Tables: rng.Perm(NumTables)[:c.N], Filters: make([]bool, c.N)}
	if c.Kind == Clique {
		// A clique has no distinguished position; keep one spelling of the
		// table set so equal sets compare equal.
		sort.Ints(s.Tables)
	}
	s.Filters[0] = true
	for i := 1; i < c.N; i++ {
		s.Filters[i] = rng.Intn(4) == 0
	}
	return s
}

// Spell writes one SQL spelling of the structure: fresh aliases, FROM list
// and predicates in random order, equality sides swapped at random, fresh
// literals. All spellings of a structure share one fingerprint.
func Spell(rng *rand.Rand, s Structure) string {
	alias := make(map[int]string, s.N())
	names := rng.Perm(26 * 26)
	for i, t := range s.Tables {
		alias[t] = string([]byte{'a' + byte(names[i]/26), 'a' + byte(names[i]%26)}) + strconv.Itoa(rng.Intn(10))
	}
	from := make([]string, 0, s.N())
	for _, i := range rng.Perm(s.N()) {
		t := s.Tables[i]
		from = append(from, "a_"+strconv.Itoa(t)+" "+alias[t])
	}
	var preds []string
	for _, e := range s.Edges() {
		l := alias[e[0]] + ".j_" + strconv.Itoa(e[1])
		r := alias[e[1]] + ".j_" + strconv.Itoa(e[0])
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		preds = append(preds, l+" = "+r)
	}
	for i, on := range s.Filters {
		if on {
			preds = append(preds, alias[s.Tables[i]]+".f = "+strconv.Itoa(rng.Intn(1000)))
		}
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	return "SELECT " + alias[s.Tables[0]] + ".id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
}
