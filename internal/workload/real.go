package workload

import (
	"fmt"

	"cote/internal/catalog"
	"cote/internal/sqlparser"
)

// Real1 builds the "real1" customer workload: 8 complex data-warehouse
// queries over the Warehouse1 schema, with inner joins, outer joins,
// aggregations and subqueries — the mix the paper describes for its first
// customer workload.
func Real1(nodes int) *Workload {
	cat := catalog.Warehouse1(nodes)
	return fromSQL(suffixed("real1", nodes), cat, real1SQL)
}

// Real2 builds the "real2" customer workload: 17 complex warehouse queries
// over the Warehouse2 schema. Query real2_08 is the paper's headline: 14
// tables constructed from 3 views, 21 local predicates, and 9 GROUP BY
// columns that overlap the join columns.
func Real2(nodes int) *Workload {
	cat := catalog.Warehouse2(nodes)
	return fromSQL(suffixed("real2", nodes), cat, real2SQL)
}

// fromSQL parses a list of SQL statements into a workload.
func fromSQL(name string, cat *catalog.Catalog, sqls []string) *Workload {
	w := &Workload{Name: name, Catalog: cat}
	for i, sql := range sqls {
		blk, err := sqlparser.Parse(sql, cat)
		if err != nil {
			// Workload SQL is static program data; failing to parse it is a
			// bug in this repository, not a runtime condition.
			panic(fmt.Sprintf("workload %s query %d: %v\n%s", name, i, err, sql))
		}
		blk.Name = fmt.Sprintf("%s_%02d", name, i+1)
		w.Queries = append(w.Queries, Query{Name: blk.Name, Block: blk, SQL: sql})
	}
	return w
}

// real1SQL holds the eight real1 queries.
var real1SQL = []string{
	// 1: store revenue by region for a month, classic star join.
	`SELECT rg_name, st_state, SUM(s_amount)
	 FROM sales, store, datedim, region
	 WHERE s_store_id = st_id AND s_date_id = d_id AND st_region_id = rg_id
	   AND d_month = 202406 AND st_sqft > 500
	 GROUP BY rg_name, st_state
	 ORDER BY rg_name`,

	// 2: product movement with promotion lift, 6-way join.
	`SELECT p_category, pr_channel, SUM(s_qty), COUNT(*)
	 FROM sales, product, promotion, datedim, store, customer
	 WHERE s_prod_id = p_id AND s_promo_id = pr_id AND s_date_id = d_id
	   AND s_store_id = st_id AND s_cust_id = c_id
	   AND d_year = 2024 AND pr_channel = 3 AND c_segment = 5
	 GROUP BY p_category, pr_channel`,

	// 3: returns analysis with outer-joined reasons.
	`SELECT p_name, SUM(r_amount)
	 FROM returns JOIN product ON r_prod_id = p_id
	 JOIN datedim ON r_date_id = d_id
	 LEFT OUTER JOIN reason ON r_reason_id = rs_id
	 WHERE d_quarter = 8 AND p_category = 12
	 GROUP BY p_name
	 ORDER BY p_name`,

	// 4: customers whose purchases exceed their returns (subquery merge).
	`SELECT c_name, c_city, SUM(s_amount)
	 FROM sales, customer, datedim
	 WHERE s_cust_id = c_id AND s_date_id = d_id AND d_year = 2023
	   AND c_id IN (SELECT r_cust_id FROM returns, reason
	                WHERE r_reason_id = rs_id AND rs_desc = 'defective')
	 GROUP BY c_name, c_city`,

	// 5: inventory coverage vs sales velocity across warehouses.
	`SELECT w_name, p_class, SUM(i_on_hand), SUM(s_qty)
	 FROM inventory, warehouse, product, sales, datedim
	 WHERE i_wh_id = w_id AND i_prod_id = p_id AND s_prod_id = p_id
	   AND i_date_id = d_id AND s_date_id = d_id
	   AND w_state = 7 AND d_month = 202405 AND p_price > 100
	 GROUP BY w_name, p_class
	 ORDER BY w_name, p_class`,

	// 6: employee sales performance with store and manager context.
	`SELECT e_name, st_name, COUNT(*), SUM(s_amount)
	 FROM sales, employee, store, region, datedim
	 WHERE s_emp_id = e_id AND e_store_id = st_id AND st_region_id = rg_id
	   AND s_date_id = d_id
	   AND d_holiday = 1 AND e_title = 4 AND rg_name = 'WEST'
	 GROUP BY e_name, st_name`,

	// 7: supplier exposure through product and sales, with a correlated
	// inventory check.
	`SELECT sp_name, SUM(s_amount)
	 FROM sales s, product p, supplier sp
	 WHERE s.s_prod_id = p.p_id AND p.p_supp_id = sp.sp_id
	   AND sp.sp_rating = 1
	   AND p.p_id IN (SELECT i_prod_id FROM inventory i, warehouse w
	                  WHERE i.i_wh_id = w.w_id AND w.w_state = 3
	                    AND i.i_on_hand < 50)
	 GROUP BY sp_name
	 ORDER BY sp_name`,

	// 8: nine-table kitchen-sink: full retail chain with outer-joined
	// promotions.
	`SELECT rg_name, p_category, d_quarter, SUM(s_amount), SUM(s_discount)
	 FROM sales JOIN store ON s_store_id = st_id
	 JOIN region ON st_region_id = rg_id
	 JOIN product ON s_prod_id = p_id
	 JOIN supplier ON p_supp_id = sp_id
	 JOIN customer ON s_cust_id = c_id
	 JOIN datedim ON s_date_id = d_id
	 JOIN employee ON s_emp_id = e_id
	 LEFT OUTER JOIN promotion ON s_promo_id = pr_id
	 WHERE d_year = 2024 AND c_state = 22 AND sp_state = 22 AND e_title = 2
	 GROUP BY rg_name, p_category, d_quarter
	 ORDER BY rg_name, p_category`,
}

// real2SQL holds the seventeen real2 queries.
var real2SQL = []string{
	// 1
	`SELECT b_name, SUM(o_amount)
	 FROM orders, branch, datedim
	 WHERE o_branch_id = b_id AND o_date_id = d_id AND d_fiscal_period = 55
	 GROUP BY b_name
	 ORDER BY b_name`,

	// 2
	`SELECT ch_name, d_month, COUNT(*), SUM(o_amount)
	 FROM orders, channel, datedim, account
	 WHERE o_channel_id = ch_id AND o_date_id = d_id AND o_acct_id = a_id
	   AND a_type = 2 AND d_year = 2025
	 GROUP BY ch_name, d_month`,

	// 3: order lines with product and vendor rollup.
	`SELECT v_name, p_family, SUM(ol_qty), SUM(ol_price)
	 FROM orderline, orders, product, vendor, datedim
	 WHERE ol_order_id = o_id AND ol_prod_id = p_id AND p_vendor_id = v_id
	   AND o_date_id = d_id AND d_quarter = 12 AND v_country = 9
	 GROUP BY v_name, p_family
	 ORDER BY v_name`,

	// 4: payments against orders, outer-joined pay methods.
	`SELECT pm_name, b_tier, SUM(pay_amount)
	 FROM payments JOIN orders ON pay_order_id = o_id
	 JOIN branch ON o_branch_id = b_id
	 LEFT OUTER JOIN paymethod ON pay_method_id = pm_id
	 WHERE o_status = 3 AND b_tier = 1
	 GROUP BY pm_name, b_tier`,

	// 5: customer contact effectiveness.
	`SELECT cp_id, ch_name, COUNT(*)
	 FROM contact, campaign, channel, customer, datedim
	 WHERE ct_campaign_id = cp_id AND cp_channel_id = ch_id
	   AND ct_cust_id = cu_id AND ct_date_id = d_id
	   AND ct_outcome = 2 AND cu_segment = 4 AND d_year = 2025
	 GROUP BY cp_id, ch_name`,

	// 6: account balances by region through branch.
	`SELECT rg_name, a_type, COUNT(*), SUM(a_balance)
	 FROM account, branch, region, customer
	 WHERE a_branch_id = b_id AND b_region_id = rg_id AND a_cust_id = cu_id
	   AND cu_income_band = 11 AND a_balance > 10000
	 GROUP BY rg_name, a_type
	 ORDER BY rg_name`,

	// 7: budget attainment by branch and product.
	`SELECT b_name, p_line, SUM(o_amount), SUM(bg_target)
	 FROM orders, branch, product, budget, datedim
	 WHERE o_branch_id = b_id AND o_prod_id = p_id
	   AND bg_branch_id = b_id AND bg_prod_id = p_id
	   AND o_date_id = d_id AND d_fiscal_period = 60 AND bg_period = 60
	 GROUP BY b_name, p_line`,

	// 8: the paper's headline query — 14 tables from 3 views, 21 local
	// predicates, 9 GROUP BY columns overlapping the join columns.
	`SELECT ov.o_id, ov.o_prod_id, ov.o_date_id, ov.o_channel_id,
	        pv.pay_acct_id, pv.pay_method_id, cv.ct_cust_id, cv.ct_campaign_id,
	        ol_prod_id, SUM(ol_price)
	 FROM
	  (SELECT o_id, o_branch_id, o_prod_id, o_date_id, o_channel_id, o_acct_id
	   FROM orders, branch, datedim, product
	   WHERE o_branch_id = b_id AND o_date_id = d_id AND o_prod_id = p_id
	     AND o_status = 1 AND o_units > 10 AND b_tier = 2 AND b_region_id = 7
	     AND d_year = 2025 AND d_quarter = 29 AND p_family = 31 AND p_unit_cost < 5000) AS ov,
	  (SELECT pay_order_id, pay_acct_id, pay_method_id
	   FROM payments, account, customer
	   WHERE pay_acct_id = a_id AND a_cust_id = cu_id
	     AND pay_amount > 500 AND a_type = 3 AND a_balance > 0
	     AND cu_segment = 6 AND cu_state = 14 AND cu_income_band = 9) AS pv,
	  (SELECT ct_cust_id, ct_campaign_id
	   FROM contact, campaign, channel
	   WHERE ct_campaign_id = cp_id AND cp_channel_id = ch_id
	     AND ct_outcome = 1 AND cp_budget > 100 AND ch_name = 'WEB') AS cv,
	  orderline, vendor, product, datedim
	 WHERE ov.o_id = pv.pay_order_id
	   AND ov.o_id = ol_order_id
	   AND ol_prod_id = product.p_id
	   AND product.p_vendor_id = v_id
	   AND ov.o_date_id = datedim.d_id
	   AND pv.pay_acct_id = cv.ct_cust_id
	   AND v_country = 2 AND ol_qty > 1 AND ol_cost < 900 AND datedim.d_month = 85
	 GROUP BY ov.o_id, ov.o_prod_id, ov.o_date_id, ov.o_channel_id,
	          pv.pay_acct_id, pv.pay_method_id, cv.ct_cust_id, cv.ct_campaign_id, ol_prod_id`,

	// 9: orders without exchange-rate adjustment (products of small sets).
	`SELECT d_month, SUM(o_amount)
	 FROM orders, datedim, exchange
	 WHERE o_date_id = d_id AND x_date_id = d_id AND x_currency = 12
	 GROUP BY d_month
	 ORDER BY d_month`,

	// 10: high-value accounts with correlated recent-contact check.
	`SELECT cu_name, a_balance
	 FROM account a, customer cu
	 WHERE a.a_cust_id = cu.cu_id AND a.a_balance > 100000
	   AND cu.cu_id IN (SELECT ct_cust_id FROM contact ct, datedim d
	                    WHERE ct.ct_date_id = d.d_id AND d.d_year = 2026
	                      AND ct.ct_outcome = cu.cu_segment)
	 ORDER BY cu_name`,

	// 11: channel mix across the order-to-payment pipeline.
	`SELECT ch_name, pm_name, COUNT(*)
	 FROM orders, channel, payments, paymethod, account
	 WHERE o_channel_id = ch_id AND pay_order_id = o_id
	   AND pay_method_id = pm_id AND pay_acct_id = a_id
	   AND o_amount > 1000
	 GROUP BY ch_name, pm_name`,

	// 12: vendor supply risk, snowflaked.
	`SELECT v_name, rg_name, SUM(ol_cost)
	 FROM orderline, product, vendor, orders, branch, region
	 WHERE ol_prod_id = p_id AND p_vendor_id = v_id AND ol_order_id = o_id
	   AND o_branch_id = b_id AND b_region_id = rg_id
	   AND v_country = 30 AND b_tier = 4
	 GROUP BY v_name, rg_name
	 ORDER BY v_name`,

	// 13: campaign-driven orders (view over contacts joined to orders).
	`SELECT cp2.cp_id, SUM(o_amount)
	 FROM orders o, account a,
	  (SELECT ct_cust_id, cp_id FROM contact, campaign
	   WHERE ct_campaign_id = cp_id AND ct_outcome = 1) AS cp2
	 WHERE o.o_acct_id = a.a_id AND a.a_cust_id = cp2.ct_cust_id
	 GROUP BY cp2.cp_id`,

	// 14: branch league table with outer-joined budget.
	`SELECT b_name, d_fiscal_period, SUM(o_amount)
	 FROM orders JOIN branch ON o_branch_id = b_id
	 JOIN datedim ON o_date_id = d_id
	 LEFT OUTER JOIN budget ON bg_branch_id = b_id
	 WHERE d_year = 2026 AND b_city = 100
	 GROUP BY b_name, d_fiscal_period
	 ORDER BY b_name`,

	// 15: order lines for premium customers via nested selection.
	`SELECT p_line, SUM(ol_price)
	 FROM orderline, product
	 WHERE ol_prod_id = p_id
	   AND ol_order_id IN (SELECT o_id FROM orders, account, customer
	                       WHERE o_acct_id = a_id AND a_cust_id = cu_id
	                         AND cu_income_band = 20 AND o_status = 1)
	 GROUP BY p_line
	 ORDER BY p_line`,

	// 16: fiscal-period cash flow across the whole chain.
	`SELECT d_fiscal_period, b_tier, SUM(pay_amount), COUNT(*)
	 FROM payments, orders, branch, datedim, account, customer
	 WHERE pay_order_id = o_id AND o_branch_id = b_id AND pay_date_id = d_id
	   AND pay_acct_id = a_id AND a_cust_id = cu_id
	   AND cu_state = 33 AND b_region_id = 12
	 GROUP BY d_fiscal_period, b_tier`,

	// 17: ten-way snowflake with campaign attribution.
	`SELECT rg_name, ch_name, p_family, SUM(o_amount)
	 FROM orders, branch, region, channel, product, vendor, datedim, account, customer, contact
	 WHERE o_branch_id = b_id AND b_region_id = rg_id AND o_channel_id = ch_id
	   AND o_prod_id = p_id AND p_vendor_id = v_id AND o_date_id = d_id
	   AND o_acct_id = a_id AND a_cust_id = cu_id AND ct_cust_id = cu_id
	   AND d_year = 2026 AND v_country = 17 AND ct_outcome = 3
	 GROUP BY rg_name, ch_name, p_family
	 ORDER BY rg_name, ch_name`,
}
