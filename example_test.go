package cote_test

import (
	"fmt"

	"cote"
)

// ExampleEstimatePlans shows the core flow: parse, optimize, estimate, and
// compare the estimator's plan counts with the optimizer's actuals. Plan
// counts are deterministic, unlike wall times.
func ExampleEstimatePlans() {
	cat := cote.TPCHCatalog(1, 1)
	q := cote.MustParseSQL(`
		SELECT c_name, o_totalprice
		FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
		ORDER BY c_name`, cat)

	res, err := cote.Optimize(q, cote.OptimizeOptions{Level: cote.LevelHigh})
	if err != nil {
		panic(err)
	}
	est, err := cote.EstimatePlans(q, cote.EstimateOptions{Level: cote.LevelHigh})
	if err != nil {
		panic(err)
	}

	actual := cote.ActualPlanCounts(res)
	fmt.Printf("joins enumerated: %d\n", est.Joins)
	fmt.Printf("HSJN plans: estimated %d, actual %d\n",
		est.Counts.ByMethod[cote.HSJN], actual.ByMethod[cote.HSJN])
	// Output:
	// joins enumerated: 8
	// HSJN plans: estimated 8, actual 8
}

// ExampleClosedFormJoins reproduces the closed-form join counts of Ono &
// Lohman that the paper cites: (n^3-n)/6 for linear queries, (n-1)*2^(n-2)
// for stars, (3^n-2^(n+1)+1)/2 for cliques — and the absence of a formula
// for general (cyclic) graphs, which is the reason the estimator reuses the
// enumerator instead.
func ExampleClosedFormJoins() {
	linear, _ := cote.ClosedFormJoins("linear", 10)
	star, _ := cote.ClosedFormJoins("star", 10)
	clique, _ := cote.ClosedFormJoins("clique", 10)
	_, err := cote.ClosedFormJoins("cyclic", 10)
	fmt.Println(linear, star, clique, err != nil)
	// Output:
	// 165 2304 28501 true
}

// ExampleEstimatePlans_joinCount shows the prior-art baseline metric — the
// Ono-Lohman count of distinct binary joins, Estimate.Pairs — on a query
// whose join graph contains a cycle (customer and supplier share a nation):
// countable here only because the enumerator does the counting.
func ExampleEstimatePlans_joinCount() {
	cat := cote.TPCHCatalog(1, 1)
	q := cote.MustParseSQL(`
		SELECT n_name
		FROM customer, orders, lineitem, supplier, nation
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
		  AND s_nationkey = n_nationkey`, cat)
	est, err := cote.EstimatePlans(q, cote.EstimateOptions{Level: cote.LevelHigh})
	if err != nil {
		panic(err)
	}
	fmt.Println(est.Pairs)
	// Output:
	// 51
}
