package core

import (
	"math"
	"testing"
	"time"

	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/stats"
	"cote/internal/workload"
)

// starBlock builds the synthetic star workload query shape used across the
// paper's experiments: a center joined to n-1 satellites with preds join
// predicates per edge, optional ORDER BY / GROUP BY columns, and physical
// partitioning across nodes when nodes > 1.
func starBlock(tb testing.TB, n, preds, orderby, groupby, nodes int) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder("star")
	ct := cb.Table("center", 1_000_000)
	for s := 1; s < n; s++ {
		for p := 0; p < preds; p++ {
			ct.Column(cn(s, p), 1_000)
		}
	}
	ct.Column("m1", 500).Column("m2", 500).Column("m3", 500)
	ct.Index("pk_center", true, cn(1, 0))
	if nodes > 1 {
		ct.Partition(nodes, cn(1, 0))
	}
	for s := 1; s < n; s++ {
		st := cb.Table(sn(s), 10_000)
		for p := 0; p < preds; p++ {
			st.Column(cn(0, p), 1_000)
		}
		st.Column("d1", 100).Column("d2", 100)
		st.Index("ix_"+sn(s), false, cn(0, 0))
		if nodes > 1 {
			st.Partition(nodes, cn(0, preds-1))
		}
	}
	cat := cb.Build()

	qb := query.NewBuilder("star", cat)
	qb.AddTable("center", "")
	for s := 1; s < n; s++ {
		qb.AddTable(sn(s), "")
	}
	for s := 1; s < n; s++ {
		for p := 0; p < preds; p++ {
			qb.JoinEq("center", cn(s, p), sn(s), cn(0, p))
		}
	}
	var ob, gb []query.ColID
	for i := 0; i < orderby && i < 3; i++ {
		ob = append(ob, qb.Col("center", "m"+string(rune('1'+i))))
	}
	for i := 0; i < groupby && i < 2; i++ {
		gb = append(gb, qb.Col(sn(1), "d"+string(rune('1'+i))))
	}
	qb.OrderBy(ob...)
	qb.GroupBy(gb...)
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

func cn(s, p int) string { return "j" + it(s) + "_" + it(p) }
func sn(s int) string    { return "sat" + it(s) }
func it(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// compare runs real optimization and the estimator on the same query and
// returns (actual, estimated) plan counts.
func compare(tb testing.TB, blk *query.Block, level opt.Level, cfg *cost.Config) (PlanCounts, *Estimate, *opt.Result) {
	tb.Helper()
	res, err := opt.Optimize(blk, opt.Options{Level: level, Config: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	est, err := EstimatePlans(blk, Options{Level: level, Config: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	return CountsFrom(res.TotalCounters()), est, res
}

func TestSerialHSJNExact(t *testing.T) {
	// Figure 5(c): hash joins don't propagate orders, so the estimate is
	// exact — twice the number of (unordered) joins.
	for _, preds := range []int{1, 2, 3} {
		blk := starBlock(t, 6, preds, 1, 0, 1)
		actual, est, res := compare(t, blk, opt.LevelHigh, cost.Serial)
		if est.Counts.ByMethod[props.HSJN] != actual.ByMethod[props.HSJN] {
			t.Fatalf("preds=%d: HSJN estimate %d != actual %d",
				preds, est.Counts.ByMethod[props.HSJN], actual.ByMethod[props.HSJN])
		}
		_, pairs := res.TotalJoins()
		if est.Counts.ByMethod[props.HSJN] != 2*pairs {
			t.Fatalf("preds=%d: HSJN = %d, want 2x%d joins", preds, est.Counts.ByMethod[props.HSJN], pairs)
		}
	}
}

func TestSerialEstimateAccuracy(t *testing.T) {
	// Figure 5(a)-(b): NLJN within ~30%, MGJN within ~15% on star queries.
	for _, tc := range []struct{ n, preds, ob int }{
		{6, 1, 0}, {6, 3, 1}, {8, 2, 2}, {8, 5, 1}, {10, 1, 1},
	} {
		blk := starBlock(t, tc.n, tc.preds, tc.ob, 0, 1)
		actual, est, _ := compare(t, blk, opt.LevelHighInner2, cost.Serial)
		for _, m := range []props.JoinMethod{props.NLJN, props.MGJN} {
			e := stats.RelErr(float64(est.Counts.ByMethod[m]), float64(actual.ByMethod[m]))
			if e > 0.40 {
				t.Errorf("n=%d preds=%d ob=%d: %v estimate %d vs actual %d (%.0f%% error)",
					tc.n, tc.preds, tc.ob, m, est.Counts.ByMethod[m], actual.ByMethod[m], e*100)
			}
		}
	}
}

func TestEstimateTracksWithinBatchVariation(t *testing.T) {
	// §5.3: queries within a batch share join counts but differ in plans;
	// the estimator must reproduce the trend (join-count models cannot).
	var actuals, ests []float64
	for preds := 1; preds <= 5; preds++ {
		blk := starBlock(t, 6, preds, 1, 0, 1)
		actual, est, _ := compare(t, blk, opt.LevelHighInner2, cost.Serial)
		actuals = append(actuals, float64(actual.Total()))
		ests = append(ests, float64(est.Counts.Total()))
	}
	for i := 1; i < len(actuals); i++ {
		if actuals[i] <= actuals[i-1] {
			t.Fatalf("actual plan counts not increasing across batch: %v", actuals)
		}
		if ests[i] <= ests[i-1] {
			t.Fatalf("estimated plan counts do not track the batch trend: %v", ests)
		}
	}
}

func TestParallelEstimateAccuracy(t *testing.T) {
	for _, tc := range []struct{ n, preds, ob int }{
		{5, 2, 1}, {6, 2, 0}, {6, 3, 2},
	} {
		blk := starBlock(t, tc.n, tc.preds, tc.ob, 0, 4)
		actual, est, _ := compare(t, blk, opt.LevelHighInner2, cost.Parallel4)
		for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
			if actual.ByMethod[m] == 0 {
				continue
			}
			e := stats.RelErr(float64(est.Counts.ByMethod[m]), float64(actual.ByMethod[m]))
			if e > 0.60 {
				t.Errorf("n=%d preds=%d ob=%d: parallel %v estimate %d vs actual %d (%.0f%% error)",
					tc.n, tc.preds, tc.ob, m, est.Counts.ByMethod[m], actual.ByMethod[m], e*100)
			}
		}
	}
}

func TestCompoundModeRuns(t *testing.T) {
	blk := starBlock(t, 6, 2, 1, 0, 4)
	sep, err := EstimatePlans(blk, Options{Level: opt.LevelHighInner2, Config: cost.Parallel4})
	if err != nil {
		t.Fatal(err)
	}
	blk2 := starBlock(t, 6, 2, 1, 0, 4)
	comp, err := EstimatePlans(blk2, Options{Level: opt.LevelHighInner2, Config: cost.Parallel4, ListMode: CompoundLists})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Counts.Total() == 0 || sep.Counts.Total() == 0 {
		t.Fatal("zero counts")
	}
	// Same enumeration, so joins agree.
	if comp.Joins != sep.Joins {
		t.Fatalf("compound joins %d != separate joins %d", comp.Joins, sep.Joins)
	}
	if SeparateLists.String() != "separate" || CompoundLists.String() != "compound" {
		t.Fatal("mode names wrong")
	}
}

// fastestCompile compiles blk five times and returns the fastest run. Tests
// that compare wall clocks use it on every timing they take: a single shot
// of a sub-millisecond compile can absorb a GC cycle or a descheduling
// several times its own length.
func fastestCompile(t *testing.T, blk *query.Block, level opt.Level) *opt.Result {
	t.Helper()
	var best *opt.Result
	for i := 0; i < 5; i++ {
		res, err := opt.Optimize(blk, opt.Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return best
}

// fastestOf5 is a TrainingObservation compile func, as
// experiments.TrainModel's: the fastest of five compiles of blk, each
// released, so every compile after the first runs on a warm workspace.
func fastestOf5(blk *query.Block) func(opt.Options) (*opt.Result, error) {
	return func(o opt.Options) (*opt.Result, error) {
		var best *opt.Result
		for i := 0; i < 5; i++ {
			res, err := opt.Optimize(blk, o)
			if err != nil {
				return nil, err
			}
			res.Release()
			if best == nil || res.Elapsed < best.Elapsed {
				best = res
			}
		}
		return best, nil
	}
}

func TestEstimationOverheadSmall(t *testing.T) {
	// Figure 4: estimation is a small fraction of real compilation. Both
	// sides are the fastest of five runs and only a generous bound is
	// asserted; the bench harness reports the precise percentages.
	blk := starBlock(t, 9, 3, 2, 1, 1)
	compile := fastestCompile(t, blk, opt.LevelHigh).Elapsed
	var estimate time.Duration
	for i := 0; i < 5; i++ {
		est, err := EstimatePlans(blk, Options{Level: opt.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || est.Elapsed < estimate {
			estimate = est.Elapsed
		}
	}
	if estimate > compile/2 {
		t.Fatalf("estimation took %v of a %v compilation — expected a small fraction",
			estimate, compile)
	}
}

func TestCalibrateRecoversLinearModel(t *testing.T) {
	// Synthetic training data generated from known constants: each
	// observation's per-method generation times are its plans priced by
	// the true constants, and its wall time adds C0.
	want := TimeModel{Tinst: 1e-9, C0: 50_000}
	want.C[props.MGJN], want.C[props.NLJN], want.C[props.HSJN] = 5000, 2000, 4000
	var training, untimed []CompileObservation
	for i := 1; i <= 8; i++ {
		counts := PlanCounts{}
		counts.ByMethod[props.MGJN] = 100 * i
		counts.ByMethod[props.NLJN] = 50 * i * i
		counts.ByMethod[props.HSJN] = 30*i + i*i*i
		o := CompileObservation{Counts: counts, Actual: want.Predict(counts)}
		untimed = append(untimed, o)
		for m, p := range counts.ByMethod {
			o.GenSeconds[m] = want.Tinst * want.C[m] * float64(p)
		}
		training = append(training, o)
	}
	got, err := Calibrate(training)
	if err != nil {
		t.Fatal(err)
	}
	for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
		if math.Abs(got.C[m]-want.C[m])/want.C[m] > 0.01 {
			t.Fatalf("C[%v] = %v, want %v", m, got.C[m], want.C[m])
		}
	}
	if math.Abs(got.C0-want.C0)/want.C0 > 0.01 || got.Tinst != want.Tinst {
		t.Fatalf("model %+v, want %+v", got, want)
	}
	// The ratio normalizes to smallest = 1: 2.5 : 1 : 2.
	r := got.Ratio()
	if math.Abs(r[props.NLJN]-1) > 0.01 || math.Abs(r[props.MGJN]-2.5) > 0.05 {
		t.Fatalf("ratio = %v", r)
	}
	if got.String() == "" {
		t.Fatal("empty model string")
	}
	// Without per-method times there are no proportions to fit.
	if m, err := Calibrate(untimed); err == nil {
		t.Fatalf("training set without GenSeconds fitted %v", m)
	}
}

func TestCalibrateNeedsEnoughPoints(t *testing.T) {
	if _, err := Calibrate(nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Calibrate(make([]CompileObservation, 2)); err == nil {
		t.Fatal("tiny training set accepted")
	}
}

func TestEndToEndTimePrediction(t *testing.T) {
	// Train Ct on one batch, predict another: the error should be bounded.
	// (The paper reports <30% on most workloads; wall-clock noise in tests
	// warrants a looser bound, tightened in the bench harness.)
	var training []CompileObservation
	for preds := 1; preds <= 5; preds++ {
		for _, n := range []int{6, 8} {
			o, err := TrainingObservation(fastestOf5(starBlock(t, n, preds, 1, 0, 1)), opt.Options{Level: opt.LevelHighInner2})
			if err != nil {
				t.Fatal(err)
			}
			training = append(training, o)
		}
	}
	model, err := Calibrate(training)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out query.
	blk := starBlock(t, 7, 3, 1, 0, 1)
	res, err := fastestOf5(blk)(opt.Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimatePlans(blk, Options{Level: opt.LevelHighInner2, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if est.PredictedTime <= 0 {
		t.Fatal("no time prediction")
	}
	e := stats.RelErr(est.PredictedTime.Seconds(), res.Elapsed.Seconds())
	if e > 1.5 {
		t.Fatalf("time prediction %v vs actual %v (%.0f%% error)", est.PredictedTime, res.Elapsed, e*100)
	}
}

func TestJoinCountBaseline(t *testing.T) {
	blk := starBlock(t, 8, 1, 0, 0, 1)
	est, err := EstimatePlans(blk, Options{Level: opt.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ClosedFormJoins("star", 8)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pairs != want {
		t.Fatalf("join count %d != closed form %d", est.Pairs, want)
	}
}

func TestClosedFormJoins(t *testing.T) {
	if n, _ := ClosedFormJoins("linear", 4); n != 10 {
		t.Fatalf("linear(4) = %d, want 10", n)
	}
	if n, _ := ClosedFormJoins("star", 4); n != 12 {
		t.Fatalf("star(4) = %d, want 12", n)
	}
	if n, _ := ClosedFormJoins("star", 1); n != 0 {
		t.Fatal("star(1) != 0")
	}
	if n, _ := ClosedFormJoins("clique", 4); n != 25 {
		t.Fatalf("clique(4) = %d, want 25", n)
	}
	if _, err := ClosedFormJoins("clique", 40); err == nil {
		t.Fatal("clique(40) overflows int64 but was accepted")
	}
	// The clique form is the ceiling the enumerator reaches on a complete
	// join graph (6, 8 and 10 tables: 301, 3,025, 28,501 pairs).
	for _, q := range workload.Clique(1).Queries {
		est, err := EstimatePlans(q.Block, Options{Level: opt.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ClosedFormJoins("clique", q.Block.NumTables()); est.Pairs != want {
			t.Fatalf("%s: %d pairs, closed form %d", q.Name, est.Pairs, want)
		}
	}
	if _, err := ClosedFormJoins("cycle", 5); err == nil {
		t.Fatal("closed form for cyclic shape should not exist (#P-complete)")
	}
	if _, err := ClosedFormJoins("linear", 0); err == nil {
		t.Fatal("invalid table count accepted")
	}
}

func TestJoinCountModelCannotSeparateBatch(t *testing.T) {
	// §5.3: within a batch the join count is constant, so the best possible
	// join-count model predicts one time for all five queries, while actual
	// plan counts spread widely. Verify the spread the baseline misses.
	var planTotals []int
	pairs := -1
	for preds := 1; preds <= 5; preds++ {
		blk := starBlock(t, 8, preds, 1, 0, 1)
		actual, _, res := compare(t, blk, opt.LevelHighInner2, cost.Serial)
		planTotals = append(planTotals, actual.Total())
		_, p := res.TotalJoins()
		if pairs < 0 {
			pairs = p
		} else if pairs != p {
			t.Fatalf("join pairs differ within batch: %d vs %d", pairs, p)
		}
	}
	spread := float64(planTotals[len(planTotals)-1]) / float64(planTotals[0])
	if spread < 1.5 {
		t.Fatalf("plan-count spread within batch only %.2fx — fixture too weak", spread)
	}
}

func TestCalibrateJoinCountModel(t *testing.T) {
	training := []CompileObservation{
		{Pairs: 10, Actual: 100 * time.Microsecond},
		{Pairs: 20, Actual: 200 * time.Microsecond},
		{Pairs: 40, Actual: 400 * time.Microsecond},
	}
	m, err := CalibrateJoinCount(training)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(30); math.Abs(got.Seconds()-300e-6) > 5e-6 {
		t.Fatalf("baseline predict(30) = %v, want ~300µs", got)
	}
	if _, err := CalibrateJoinCount(training[:1]); err == nil {
		t.Fatal("single training point accepted")
	}
}

func TestPiggybackMatchesIndividualEstimates(t *testing.T) {
	blk := starBlock(t, 7, 2, 1, 0, 1)
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelHighInner2, opt.LevelHigh}
	multi, err := EstimateLevels(blk, opt.LevelHigh, levels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		blk2 := starBlock(t, 7, 2, 1, 0, 1)
		single, err := EstimatePlans(blk2, Options{Level: l})
		if err != nil {
			t.Fatal(err)
		}
		if multi.Joins[l] != single.Joins {
			t.Errorf("level %v: piggyback joins %d != individual %d", l, multi.Joins[l], single.Joins)
		}
		// Counts agree up to the property lists built under the wider
		// top-level propagation; require close agreement.
		e := stats.RelErr(float64(multi.Counts[l].Total()), float64(single.Counts.Total()))
		if e > 0.15 {
			t.Errorf("level %v: piggyback total %d vs individual %d (%.0f%%)",
				l, multi.Counts[l].Total(), single.Counts.Total(), e*100)
		}
	}
}

func TestPiggybackRejectsNonSubsumedLevels(t *testing.T) {
	blk := starBlock(t, 5, 1, 0, 0, 1)
	if _, err := EstimateLevels(blk, opt.LevelMediumLeftDeep, []opt.Level{opt.LevelHigh}, Options{}); err == nil {
		t.Fatal("non-subsumed level accepted")
	}
	if _, err := EstimateLevels(blk, opt.LevelHigh, []opt.Level{opt.LevelLow}, Options{}); err == nil {
		t.Fatal("greedy level accepted for plan-count estimation")
	}
}

func TestMemoryEstimatePositiveAndMonotone(t *testing.T) {
	small, err := EstimatePlans(starBlock(t, 5, 1, 0, 0, 1), Options{Level: opt.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	big, err := EstimatePlans(starBlock(t, 9, 3, 2, 1, 1), Options{Level: opt.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if small.PredictedMemoryBytes <= 0 {
		t.Fatal("no memory estimate")
	}
	if big.PredictedMemoryBytes <= small.PredictedMemoryBytes {
		t.Fatalf("memory estimate not monotone: %d vs %d",
			small.PredictedMemoryBytes, big.PredictedMemoryBytes)
	}
}

func TestMOPDecisions(t *testing.T) {
	blk := starBlock(t, 6, 2, 1, 0, 1)
	// A model predicting enormous compile times forbids recompilation.
	slow := &TimeModel{Tinst: 1e-9}
	slow.C[props.NLJN], slow.C[props.MGJN], slow.C[props.HSJN] = 1e15, 1e15, 1e15
	_, dec, err := (&MOP{Model: slow}).Run(blk)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Recompiled || dec.FinalLevel != opt.LevelLow {
		t.Fatalf("MOP recompiled under a prohibitive estimate: %+v", dec)
	}

	// A near-zero model always recompiles, and the high-level plan is no
	// worse.
	fast := &TimeModel{Tinst: 1e-9}
	blk2 := starBlock(t, 6, 2, 1, 0, 1)
	res, dec, err := (&MOP{Model: fast}).Run(blk2)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Recompiled || dec.FinalLevel == opt.LevelLow {
		t.Fatalf("MOP refused a free recompilation: %+v", dec)
	}
	if dec.FinalPlanCost > dec.LowPlanExecCost {
		t.Fatalf("high-level plan (%v) worse than greedy plan (%v)",
			dec.FinalPlanCost, dec.LowPlanExecCost)
	}
	if res.Plan == nil || dec.TotalElapsed <= 0 {
		t.Fatal("missing result details")
	}
}

func TestMOPStaticQueriesGetMoreBudget(t *testing.T) {
	// A model tuned so C sits between E and 10E: dynamic queries skip
	// recompilation, static ones take it.
	blk := starBlock(t, 6, 1, 0, 0, 1)
	low, err := opt.Optimize(blk, opt.Options{Level: opt.LevelLow})
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimatePlans(blk, Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	// Choose C so that predicted compile = 3x the low plan's exec time.
	const tinst = 1e-9
	target := 3 * low.Plan.Cost * tinst
	perPlan := target / tinst / float64(est.Counts.Total())
	m := &TimeModel{Tinst: tinst}
	for i := range m.C {
		m.C[i] = perPlan
	}

	_, dyn, err := (&MOP{Model: m}).Run(starBlock(t, 6, 1, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, sta, err := (&MOP{Model: m, Static: true}).Run(starBlock(t, 6, 1, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Recompiled {
		t.Fatalf("dynamic query recompiled with C=3E: %+v", dyn)
	}
	if !sta.Recompiled {
		t.Fatalf("static query skipped recompilation with C=3E: %+v", sta)
	}
}

func TestEstimateLazyPolicyIndexSensitivity(t *testing.T) {
	// §5.4: under the eager policy, indexes barely change plan counts; the
	// partition layout matters instead (lazy generation). Compare two
	// identical queries over schemas differing only in an extra index.
	build := func(extraIndex bool) *query.Block {
		cb := catalog.NewBuilder("ix")
		tb := cb.Table("r", 100_000).Column("a", 1_000).Column("b", 100)
		if extraIndex {
			tb.Index("ix_r_b", false, "b")
		}
		cb.Table("s", 50_000).Column("a", 1_000)
		cat := cb.Build()
		qb := query.NewBuilder("ix", cat)
		qb.AddTable("r", "")
		qb.AddTable("s", "")
		qb.JoinEq("r", "a", "s", "a")
		return qb.MustBuild()
	}
	plain, err := EstimatePlans(build(false), Options{Level: opt.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := EstimatePlans(build(true), Options{Level: opt.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counts != indexed.Counts {
		t.Fatalf("eager policy: index changed estimated counts: %v vs %v",
			plain.Counts, indexed.Counts)
	}
}

func TestPipelinePropertyEstimation(t *testing.T) {
	// FETCH FIRST makes pipelineability interesting; both the real plan
	// counts and the estimate grow, and they stay within tolerance.
	mk := func(firstN int) *CompileObservation {
		blk := starBlock(t, 6, 2, 0, 0, 1)
		blk.FirstN = firstN
		res, err := opt.Optimize(blk, opt.Options{Level: opt.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		blk2 := starBlock(t, 6, 2, 0, 0, 1)
		blk2.FirstN = firstN
		est, err := EstimatePlans(blk2, Options{Level: opt.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		tp := ObservationFrom(res, nil)
		t.Logf("firstN=%d actual=%d est=%d", firstN, tp.Counts.Total(), est.Counts.Total())
		if ratio := float64(est.Counts.Total()) / float64(tp.Counts.Total()); ratio < 0.5 || ratio > 2 {
			t.Fatalf("firstN=%d: estimate %d vs actual %d", firstN, est.Counts.Total(), tp.Counts.Total())
		}
		return &tp
	}
	plain := mk(0)
	firstN := mk(10)
	if firstN.Counts.Total() <= plain.Counts.Total() {
		t.Fatalf("FETCH FIRST did not grow actual plan counts: %d vs %d",
			firstN.Counts.Total(), plain.Counts.Total())
	}
}
