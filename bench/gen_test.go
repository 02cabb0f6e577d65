package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cote/internal/fingerprint"
	"cote/internal/service"
	"cote/internal/sqlparser"
)

func mustGenerate(t *testing.T, name string, seed int64) *Set {
	t.Helper()
	w, ok := WorkloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	set, err := Generate(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func sqlOf(t *testing.T, r Request) string {
	t.Helper()
	var body struct {
		Catalog, SQL, Level string
	}
	if err := json.Unmarshal(r.Body, &body); err != nil {
		t.Fatal(err)
	}
	if body.Catalog != CatalogName || body.Level != "high" {
		t.Fatalf("request for catalog %q level %q", body.Catalog, body.Level)
	}
	return body.SQL
}

func classMix(set *Set) map[string]int {
	mix := map[string]int{}
	for _, s := range set.Structures {
		mix[fmt.Sprintf("%s-%d", s.Kind, s.N())]++
	}
	return mix
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range Workloads {
		a, b := mustGenerate(t, w.Name, 7), mustGenerate(t, w.Name, 7)
		if len(a.Pass) != w.PassLen || len(a.Structures) != w.Structures {
			t.Fatalf("%s: %d requests over %d structures, want %d over %d", w.Name, len(a.Pass), len(a.Structures), w.PassLen, w.Structures)
		}
		for i := range a.Pass {
			if !bytes.Equal(a.Pass[i].Body, b.Pass[i].Body) || a.Pass[i].Structure != b.Pass[i].Structure {
				t.Fatalf("%s: request %d differs between two runs of seed 7", w.Name, i)
			}
		}
	}
}

func TestOtherSeedOtherStructuresSameMix(t *testing.T) {
	for _, w := range Workloads {
		a, b := mustGenerate(t, w.Name, 7), mustGenerate(t, w.Name, 8)
		if reflect.DeepEqual(a.Structures, b.Structures) {
			t.Errorf("%s: seeds 7 and 8 gave the same structures", w.Name)
		}
		if ma, mb := classMix(a), classMix(b); !reflect.DeepEqual(ma, mb) {
			t.Errorf("%s: class mix differs between seeds: %v vs %v", w.Name, ma, mb)
		}
		mix := classMix(a)
		for _, c := range w.Classes {
			key := fmt.Sprintf("%s-%d", c.Kind, c.N)
			if mix[key] != w.Structures*c.Share/4 {
				t.Errorf("%s: %d structures of class %s, want %d", w.Name, mix[key], key, w.Structures*c.Share/4)
			}
		}
	}
}

// The cold workloads rely on 1536 fingerprints overflowing a 1024-entry
// cache, the warm one on every spelling of a structure sharing its
// fingerprint: check both with the program's own parser and fingerprint.
func TestFingerprintsDistinctPerStructure(t *testing.T) {
	entry, err := service.NewRegistry().Register(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		set := mustGenerate(t, w.Name, 3)
		byStructure := map[int]fingerprint.FP{}
		distinct := map[fingerprint.FP]bool{}
		for i, r := range set.Pass {
			blk, err := sqlparser.Parse(sqlOf(t, r), entry.Catalog)
			if err != nil {
				t.Fatalf("%s request %d: %v", w.Name, i, err)
			}
			fp := fingerprint.Of(blk)
			if prev, ok := byStructure[r.Structure]; ok && prev != fp {
				t.Fatalf("%s: two spellings of structure %d fingerprint differently", w.Name, r.Structure)
			}
			byStructure[r.Structure] = fp
			distinct[fp] = true
		}
		if len(distinct) != w.Structures {
			t.Errorf("%s: %d distinct fingerprints, want %d", w.Name, len(distinct), w.Structures)
		}
	}
}

// A column that served two edges would let transitive closure add a third,
// and the closed forms would no longer describe the join graph.
func TestNoColumnSharedBetweenEdges(t *testing.T) {
	for _, w := range Workloads {
		set := mustGenerate(t, w.Name, 5)
		for i, r := range set.Pass {
			sql := sqlOf(t, r)
			where := sql[strings.Index(sql, " WHERE ")+len(" WHERE "):]
			used := map[string]bool{}
			joins := 0
			for _, pred := range strings.Split(where, " AND ") {
				sides := strings.Split(pred, " = ")
				if len(sides) != 2 || !strings.Contains(sides[1], ".") {
					continue // a literal filter
				}
				joins++
				for _, col := range sides {
					if used[col] {
						t.Fatalf("%s request %d: column %s joins twice in %q", w.Name, i, col, sql)
					}
					used[col] = true
				}
			}
			if want := len(set.Structures[r.Structure].Edges()); joins != want {
				t.Fatalf("%s request %d: %d join predicates, want %d", w.Name, i, joins, want)
			}
		}
	}
}
