// Command explain compiles one SQL query against a built-in catalog, prints
// the chosen plan, and reports the compilation-time estimator's view of the
// same query: enumerated joins, estimated generated plans per join method,
// the estimation overhead, and the predicted optimizer memory.
//
// Usage:
//
//	explain [-catalog tpch|warehouse1|warehouse2] [-nodes 1|4] [-level high|inner2|zigzag|leftdeep]
//	        [-timeout 0] [-mem-budget 0] [-model-file f.json] [-calibrate workload] 'SELECT ...'
//
// With no query argument, a TPC-H demonstration query is used. -timeout
// bounds the whole run (compile + estimate); an expired deadline stops the
// optimizer cooperatively mid-enumeration. -mem-budget aborts the compile
// when its measured optimizer memory crosses that many bytes. The estimator
// also reports the wall-clock compilation-time prediction of the time model
// from -model-file, a -calibrate fit on a named workload, or the release.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cote"
	"cote/internal/modelio"
)

const demoQuery = `
	SELECT n_name, SUM(l_extendedprice)
	FROM customer, orders, lineitem, supplier, nation, region
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
	  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	  AND r_name = 'ASIA'
	GROUP BY n_name
	ORDER BY n_name`

func main() {
	catName := flag.String("catalog", "tpch", "catalog: tpch, warehouse1, warehouse2")
	nodes := flag.Int("nodes", 1, "logical nodes (1 = serial, 4 = the paper's parallel setup)")
	levelName := flag.String("level", "inner2", "optimization level: high, inner2, zigzag, leftdeep")
	timeout := flag.Duration("timeout", 0, "deadline for compile + estimate (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "abort the compile when measured optimizer memory crosses this many bytes (0 = off)")
	var mf modelio.Flags
	mf.Register(flag.CommandLine)
	flag.Parse()

	if err := modelio.CheckNodes(*nodes); err != nil {
		fatalf("%v", err)
	}
	sql := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(sql) == "" {
		sql = demoQuery
		fmt.Println("(no query given; using the built-in TPC-H Q5 demonstration query)")
	}

	var cat *cote.Catalog
	switch *catName {
	case "tpch":
		cat = cote.TPCHCatalog(1, *nodes)
	case "warehouse1":
		cat = cote.Warehouse1Catalog(*nodes)
	case "warehouse2":
		cat = cote.Warehouse2Catalog(*nodes)
	default:
		fatalf("unknown catalog %q", *catName)
	}

	var level cote.Level
	switch *levelName {
	case "high":
		level = cote.LevelHigh
	case "inner2":
		level = cote.LevelHighInner2
	case "zigzag":
		level = cote.LevelMediumZigZag
	case "leftdeep":
		level = cote.LevelMediumLeftDeep
	default:
		fatalf("unknown level %q", *levelName)
	}

	cfg := modelio.ConfigFor(*nodes)

	q, err := cote.ParseSQL(sql, cat)
	if err != nil {
		fatalf("parse: %v", err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	oc := cote.NewExecContext(ctx)
	if *memBudget > 0 {
		oc.SetMemBudget(*memBudget)
	}
	res, err := cote.OptimizeWith(oc, q, cote.OptimizeOptions{Level: level, Config: cfg})
	if err != nil {
		fatalf("optimize: %v", err)
	}
	fmt.Printf("\n=== plan (level %v, %d node(s)) ===\n%s\n", level, *nodes, res.Plan)
	fmt.Printf("estimated execution cost: %.0f units, output rows: %.0f\n", res.Plan.Cost, res.Plan.Card)
	ordered, pairs := res.TotalJoins()
	actual := cote.ActualPlanCounts(res)
	fmt.Printf("\n=== real compilation ===\n")
	fmt.Printf("time %v | %d join pairs (%d ordered) | plans generated: %v\n",
		res.Elapsed, pairs, ordered, actual)
	fmt.Printf("optimizer memory: peak %d B (durable %d B)\n",
		res.Resources.PeakBytes, res.Resources.DurablePeakBytes)

	model, reg, err := mf.Resolve(*nodes)
	if err != nil {
		fatalf("model: %v", err)
	}
	fmt.Printf("\ntime model (v%d, %s): %v\n", reg.Version(), reg.Current().Source, model)
	if err := mf.Save(reg); err != nil {
		fatalf("model: %v", err)
	}

	est, err := cote.EstimatePlansCtx(ctx, q, cote.EstimateOptions{Level: level, Config: cfg, Model: model})
	if err != nil {
		fatalf("estimate: %v", err)
	}
	fmt.Printf("\n=== compilation time estimator ===\n")
	fmt.Printf("%v (%.2f%% of compilation)\n", est, 100*est.Elapsed.Seconds()/res.Elapsed.Seconds())
	fmt.Printf("estimated plans: %v (actual %v)\n", est.Counts, actual)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "explain: "+format+"\n", args...)
	os.Exit(1)
}
