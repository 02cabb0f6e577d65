// Package service turns the cote library into a long-running, multi-tenant
// estimation daemon: a catalog registry clients compile against, a bounded
// worker pool that keeps estimation and optimization requests from
// stampeding the process, a singleflight LRU estimate cache keyed by
// (catalog epoch, structural fingerprint, level) so repeat structures in any
// spelling skip enumeration, a MOP-driven admission controller that prices a full
// optimization before running it (the paper's Figure 1 meta-optimizer
// recast as a serving-side guardrail), and an observability layer exposed
// at /metrics. cmd/coted wraps it in an HTTP server.
package service

import (
	"fmt"
	"sort"
	"sync"

	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/faultinject"
)

// RegistryEntry is one schema clients can submit SQL against.
type RegistryEntry struct {
	Name    string
	Catalog *catalog.Catalog
	// Config is the execution architecture the optimizer costs for:
	// Parallel-N when any table is partitioned across N > 1 nodes, serial
	// otherwise.
	Config *cost.Config
	// BuiltIn marks the catalogs registered at startup.
	BuiltIn bool
	// Epoch is the cache-invalidation generation of this entry: 0 for
	// built-ins and first registrations, a fresh process-unique value for
	// every re-upload of an existing name. It is part of EstimateKey, so
	// estimates cached against a catalog's old statistics die with its old
	// epoch while first registrations with identical schemas keep sharing.
	Epoch uint64
}

// Registry is the goroutine-safe catalog registry. Clients register a
// schema once (or use a built-in) and then submit SQL by catalog name.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*RegistryEntry
	// epochs is the last epoch handed to a re-uploaded catalog; it only
	// grows, so an epoch is never reused across names or uploads.
	epochs uint64
}

// NewRegistry returns a registry pre-populated with the built-in schemas:
// tpch, warehouse1 and warehouse2, plus their 4-node partitioned variants
// under a _p suffix.
func NewRegistry() *Registry {
	r := &Registry{entries: make(map[string]*RegistryEntry)}
	builtins := []struct {
		name string
		cat  *catalog.Catalog
		cfg  *cost.Config
	}{
		{"tpch", catalog.TPCH(1, 1), cost.Serial},
		{"tpch_p", catalog.TPCH(1, 4), cost.Parallel4},
		{"warehouse1", catalog.Warehouse1(1), cost.Serial},
		{"warehouse1_p", catalog.Warehouse1(4), cost.Parallel4},
		{"warehouse2", catalog.Warehouse2(1), cost.Serial},
		{"warehouse2_p", catalog.Warehouse2(4), cost.Parallel4},
	}
	for _, b := range builtins {
		r.entries[b.name] = &RegistryEntry{Name: b.name, Catalog: b.cat, Config: b.cfg, BuiltIn: true}
	}
	return r
}

// Get returns the named entry.
func (r *Registry) Get(name string) (*RegistryEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown catalog %q", name)
	}
	return e, nil
}

// CatalogInfo is the listing form of one registry entry.
type CatalogInfo struct {
	Name    string `json:"name"`
	Tables  int    `json:"tables"`
	Nodes   int    `json:"nodes"`
	BuiltIn bool   `json:"built_in"`
}

func (e *RegistryEntry) info() CatalogInfo {
	return CatalogInfo{Name: e.Name, Tables: e.Catalog.NumTables(), Nodes: e.Config.Nodes, BuiltIn: e.BuiltIn}
}

// List returns all entries sorted by name.
func (r *Registry) List() []CatalogInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]CatalogInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CatalogDef is the JSON schema-upload format of POST /v1/catalogs.
type CatalogDef struct {
	Name   string     `json:"name"`
	Tables []TableDef `json:"tables"`
}

// TableDef defines one table of an uploaded catalog.
type TableDef struct {
	Name        string          `json:"name"`
	Rows        float64         `json:"rows"`
	Columns     []ColumnDef     `json:"columns"`
	Indexes     []IndexDef      `json:"indexes,omitempty"`
	Partition   *PartitionDef   `json:"partition,omitempty"`
	ForeignKeys []ForeignKeyDef `json:"foreign_keys,omitempty"`
}

// ColumnDef defines one column: its name and number of distinct values.
type ColumnDef struct {
	Name string  `json:"name"`
	NDV  float64 `json:"ndv"`
}

// IndexDef defines one (possibly composite) index.
type IndexDef struct {
	Name    string   `json:"name"`
	Unique  bool     `json:"unique,omitempty"`
	Columns []string `json:"columns"`
}

// PartitionDef declares hash partitioning across nodes.
type PartitionDef struct {
	Nodes   int      `json:"nodes"`
	Columns []string `json:"columns"`
}

// ForeignKeyDef declares a foreign key to ref_table.
type ForeignKeyDef struct {
	Columns    []string `json:"columns"`
	RefTable   string   `json:"ref_table"`
	RefColumns []string `json:"ref_columns"`
}

// Register validates and registers an uploaded catalog definition. Built-in
// names cannot be replaced; re-uploading a user catalog overwrites it.
func (r *Registry) Register(def CatalogDef) (entry *RegistryEntry, err error) {
	if def.Name == "" {
		return nil, fmt.Errorf("service: catalog needs a name")
	}
	if len(def.Tables) == 0 {
		return nil, fmt.Errorf("service: catalog %q has no tables", def.Name)
	}
	// The catalog builder treats malformed schemas as programming errors
	// and panics; uploads are untrusted input, so convert panics to errors.
	defer func() {
		if p := recover(); p != nil {
			entry, err = nil, fmt.Errorf("service: invalid catalog %q: %v", def.Name, p)
		}
	}()
	nodes := 1
	b := catalog.NewBuilder(def.Name)
	for _, t := range def.Tables {
		b.Table(t.Name, t.Rows)
		for _, c := range t.Columns {
			b.Column(c.Name, c.NDV)
		}
		for _, ix := range t.Indexes {
			b.Index(ix.Name, ix.Unique, ix.Columns...)
		}
		if t.Partition != nil {
			b.Partition(t.Partition.Nodes, t.Partition.Columns...)
			if t.Partition.Nodes > nodes {
				nodes = t.Partition.Nodes
			}
		}
		for _, fk := range t.ForeignKeys {
			b.ForeignKey(fk.RefTable, fk.Columns, fk.RefColumns)
		}
	}
	cat := b.Build()
	cfg := cost.Serial
	if nodes > 1 {
		cfg = &cost.Config{Nodes: nodes}
	}
	entry = &RegistryEntry{Name: def.Name, Catalog: cat, Config: cfg}

	// The commit point: the built catalog is about to replace the entry and
	// (on re-upload) bump the epoch. A fault injected here models the
	// upload's durable step failing — the registry must stay on the previous
	// entry and epoch, which holding off the lock until after the check
	// guarantees.
	if err := faultinject.Check(faultinject.PointCatalogRegister); err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[def.Name]; ok {
		if prev.BuiltIn {
			return nil, fmt.Errorf("service: catalog %q is built in", def.Name)
		}
		// Re-upload: bump the epoch so fingerprint-keyed estimates cached
		// against the previous statistics are unreachable.
		r.epochs++
		entry.Epoch = r.epochs
	}
	r.entries[def.Name] = entry
	return entry, nil
}
