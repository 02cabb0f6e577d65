package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cote/internal/opt"
)

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []opt.Level{opt.LevelLow, opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2, opt.LevelHigh} {
		got, err := ParseLevel(LevelName(l))
		if err != nil || got != l {
			t.Fatalf("round trip %v: %v, %v", l, got, err)
		}
	}
	if l, err := ParseLevel(""); err != nil || l != opt.LevelHighInner2 {
		t.Fatalf("default level = %v, %v", l, err)
	}
	if _, err := ParseLevel("frobnicate"); err == nil {
		t.Fatal("unknown level accepted")
	}
}

// predictTable drives admit with canned per-level predictions.
func predictTable(m map[opt.Level]time.Duration) func(opt.Level) (time.Duration, bool, error) {
	return func(l opt.Level) (time.Duration, bool, error) {
		if m == nil {
			return 0, false, nil // no model
		}
		return m[l], true, nil
	}
}

// noMemPredict is the disarmed memory predicate for admissions without a
// memory budget.
func noMemPredict(opt.Level) (int64, error) { return 0, nil }

func TestAdmitDecisions(t *testing.T) {
	preds := map[opt.Level]time.Duration{
		opt.LevelHigh:           100 * time.Millisecond,
		opt.LevelHighInner2:     40 * time.Millisecond,
		opt.LevelMediumZigZag:   20 * time.Millisecond,
		opt.LevelMediumLeftDeep: 8 * time.Millisecond,
	}
	cases := []struct {
		name      string
		level     opt.Level
		budget    time.Duration
		downgrade bool
		preds     map[opt.Level]time.Duration
		action    AdmissionAction
		admitted  string
	}{
		{"no budget", opt.LevelHigh, 0, false, preds, AdmitAccept, "high"},
		{"no model", opt.LevelHigh, time.Millisecond, false, nil, AdmitBypass, "high"},
		{"within budget", opt.LevelHigh, 200 * time.Millisecond, false, preds, AdmitAccept, "high"},
		{"over, reject", opt.LevelHigh, 50 * time.Millisecond, false, preds, AdmitReject, ""},
		{"over, downgrade one", opt.LevelHigh, 50 * time.Millisecond, true, preds, AdmitDowngrade, "inner2"},
		{"over, downgrade two", opt.LevelHigh, 25 * time.Millisecond, true, preds, AdmitDowngrade, "zigzag"},
		{"over, downgrade to floor", opt.LevelHigh, time.Millisecond, true, preds, AdmitDowngrade, "low"},
		{"greedy always admitted", opt.LevelLow, time.Nanosecond, false, preds, AdmitAccept, "low"},
	}
	for _, tc := range cases {
		dec, err := admit(tc.level, tc.budget, 0, tc.downgrade, predictTable(tc.preds), noMemPredict)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dec.Action != tc.action || dec.AdmittedLevel != tc.admitted {
			t.Fatalf("%s: got %s/%q, want %s/%q", tc.name, dec.Action, dec.AdmittedLevel, tc.action, tc.admitted)
		}
	}
}

// memTable drives admit with canned per-level peak-memory predictions.
func memTable(m map[opt.Level]int64) func(opt.Level) (int64, error) {
	return func(l opt.Level) (int64, error) { return m[l], nil }
}

func TestAdmitMemoryBudget(t *testing.T) {
	preds := map[opt.Level]time.Duration{
		opt.LevelHigh:           100 * time.Millisecond,
		opt.LevelHighInner2:     40 * time.Millisecond,
		opt.LevelMediumZigZag:   20 * time.Millisecond,
		opt.LevelMediumLeftDeep: 8 * time.Millisecond,
	}
	mems := map[opt.Level]int64{
		opt.LevelHigh:           1 << 20,
		opt.LevelHighInner2:     1 << 18,
		opt.LevelMediumZigZag:   1 << 16,
		opt.LevelMediumLeftDeep: 1 << 14,
	}
	cases := []struct {
		name      string
		level     opt.Level
		budget    time.Duration
		memBudget int64
		downgrade bool
		action    AdmissionAction
		admitted  string
	}{
		{"mem within budget", opt.LevelHigh, 0, 1 << 21, false, AdmitAccept, "high"},
		{"mem over, reject", opt.LevelHigh, 0, 1 << 19, false, AdmitReject, ""},
		{"mem over, downgrade one", opt.LevelHigh, 0, 1 << 19, true, AdmitDowngrade, "inner2"},
		{"mem over, downgrade to floor", opt.LevelHigh, 0, 1 << 10, true, AdmitDowngrade, "low"},
		{"time fits but mem rejects", opt.LevelHigh, time.Second, 1 << 19, false, AdmitReject, ""},
		{"mem fits but time downgrades", opt.LevelHigh, 25 * time.Millisecond, 1 << 21, true, AdmitDowngrade, "zigzag"},
		{"both budgets downgrade to tightest", opt.LevelHigh, 50 * time.Millisecond, 1 << 17, true, AdmitDowngrade, "zigzag"},
	}
	for _, tc := range cases {
		dec, err := admit(tc.level, tc.budget, tc.memBudget, tc.downgrade, predictTable(preds), memTable(mems))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dec.Action != tc.action || dec.AdmittedLevel != tc.admitted {
			t.Fatalf("%s: got %s/%q, want %s/%q", tc.name, dec.Action, dec.AdmittedLevel, tc.action, tc.admitted)
		}
		if tc.memBudget > 0 && dec.Action != AdmitBypass && dec.PredictedBytes != mems[tc.level] {
			t.Fatalf("%s: PredictedBytes = %d, want %d", tc.name, dec.PredictedBytes, mems[tc.level])
		}
	}
}

func TestPoolBoundsConcurrencyAndQueue(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = Run(p, context.Background(), func() (int, error) {
			close(started)
			<-block
			return 1, nil
		})
	}()
	<-started

	// Second request waits; fill the one queue slot with it.
	waitErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := Run(p, context.Background(), func() (int, error) { return 2, nil })
		waitErr <- err
	}()
	// Give the waiter time to enter the queue, then overflow it.
	deadline := time.After(2 * time.Second)
	for {
		if w, _ := p.Depth(); w >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := Run(p, context.Background(), func() (int, error) { return 3, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow request: %v, want ErrQueueFull", err)
	}

	close(block)
	wg.Wait()
	if err := <-waitErr; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	if w, r := p.Depth(); w != 0 || r != 0 {
		t.Fatalf("pool not drained: waiting %d running %d", w, r)
	}
}

// TestPoolDrainedWhenRunReturns hammers Run from one caller and reads the
// gauges the moment each call returns: the slot and both counters must
// already be released, and with one worker and a one-deep line no call may
// be refused for the previous one's leftovers.
func TestPoolDrainedWhenRunReturns(t *testing.T) {
	p := NewPool(1, 1)
	for i := 0; i < 20000; i++ {
		v, err := Run(p, context.Background(), func() (int, error) { return i, nil })
		if err != nil || v != i {
			t.Fatalf("run %d: %d, %v", i, v, err)
		}
		if w, r := p.Depth(); w != 0 || r != 0 {
			t.Fatalf("run %d returned with waiting %d running %d", i, w, r)
		}
	}
}

func TestPoolContextExpiryWhileQueued(t *testing.T) {
	p := NewPool(1, 4)
	block := make(chan struct{})
	started := make(chan struct{})
	go Run(p, context.Background(), func() (int, error) {
		close(started)
		<-block
		return 0, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := Run(p, ctx, func() (int, error) { return 0, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline request: %v", err)
	}
	close(block)
}

func TestRegistryUploadAndValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Get("tpch"); err != nil {
		t.Fatalf("built-in tpch missing: %v", err)
	}
	def := CatalogDef{
		Name: "shop",
		Tables: []TableDef{
			{
				Name: "item", Rows: 50_000,
				Columns: []ColumnDef{{Name: "id", NDV: 50_000}, {Name: "cat", NDV: 40}},
				Indexes: []IndexDef{{Name: "item_pk", Unique: true, Columns: []string{"id"}}},
			},
			{
				Name: "sale", Rows: 1_000_000,
				Columns:     []ColumnDef{{Name: "item_id", NDV: 50_000}, {Name: "day", NDV: 365}},
				ForeignKeys: []ForeignKeyDef{{Columns: []string{"item_id"}, RefTable: "item", RefColumns: []string{"id"}}},
			},
		},
	}
	entry, err := r.Register(def)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Config.Nodes != 1 {
		t.Fatalf("serial upload got %d nodes", entry.Config.Nodes)
	}
	got, err := r.Get("shop")
	if err != nil || got.Catalog.NumTables() != 2 {
		t.Fatalf("Get(shop): %v, %v", got, err)
	}

	// Partitioned upload selects a parallel cost config.
	par := def
	par.Name = "shop_p"
	par.Tables = append([]TableDef(nil), def.Tables...)
	tbl := par.Tables[1]
	tbl.Name = "sale_p"
	tbl.Partition = &PartitionDef{Nodes: 4, Columns: []string{"item_id"}}
	par.Tables[1] = tbl
	pentry, err := r.Register(par)
	if err != nil {
		t.Fatal(err)
	}
	if pentry.Config.Nodes != 4 {
		t.Fatalf("partitioned upload got %d nodes", pentry.Config.Nodes)
	}

	// Builder panics (duplicate column) surface as errors, not crashes.
	bad := CatalogDef{Name: "bad", Tables: []TableDef{{
		Name: "t", Rows: 10,
		Columns: []ColumnDef{{Name: "c", NDV: 1}, {Name: "c", NDV: 2}},
	}}}
	if _, err := r.Register(bad); err == nil {
		t.Fatal("duplicate column accepted")
	}
	// Built-ins are protected.
	if _, err := r.Register(CatalogDef{Name: "tpch", Tables: def.Tables}); err == nil {
		t.Fatal("built-in overwrite accepted")
	}
	// A failed upload must not register anything.
	if _, err := r.Get("bad"); err == nil {
		t.Fatal("invalid catalog registered")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket [64, 128) µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 100*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 50*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
}
