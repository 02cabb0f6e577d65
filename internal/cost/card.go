package cost

import (
	"math"
	"slices"

	"cote/internal/bitset"
	"cote/internal/query"
)

// Mode selects the cardinality model.
type Mode int

// Cardinality modes. Full is used during real plan generation: it consults
// histograms for local predicates and knows about unique keys, at a real CPU
// cost. Simple is used in the estimator's plan-estimate mode: raw base
// statistics only, as the paper's prototype does ("the cardinality
// estimation we employed in plan-estimate mode is simpler than that used in
// real compilation ... it doesn't take into consideration the effect of keys
// and functional dependencies"). The deliberate gap between the two modes is
// the error source behind the parallel-version HSJN plan-count errors in
// Figure 5.
const (
	Full Mode = iota
	Simple
)

// String names the mode.
func (m Mode) String() string {
	if m == Full {
		return "full"
	}
	return "simple"
}

// Estimator computes cardinalities for table sets of one query block.
// Cardinality is a logical property, computed once per MEMO entry and cached
// on the entry (DB2 experience item 5); the enumerator hands the cached input
// cardinalities back to JoinCard, so simple mode keeps nothing per table set
// and owns only the per-block tables below, which Reset refills in place
// (the estimate and compile workspaces each pool one Estimator). Full mode
// alone memoizes per set, because keyCap recurses on sets the MEMO may not
// hold; Reset clears that map and keeps its storage.
type Estimator struct {
	blk  *query.Block
	mode Mode

	rows     []float64              // per-table unfiltered row count
	filtered []float64              // per-table filtered cardinality
	joinSel  []float64              // per-join-predicate selectivity
	cache    map[bitset.Set]float64 // full mode only
	predBuf  []int                  // JoinCard's crossing-predicate scratch
}

// NewEstimator builds a cardinality estimator for a finalized block.
func NewEstimator(blk *query.Block, mode Mode) *Estimator {
	e := new(Estimator)
	e.Reset(blk, mode, nil, nil)
	return e
}

// Mode returns the estimator's cardinality mode.
func (e *Estimator) Mode() Mode { return e.mode }

// Reset points the estimator at a finalized block, refilling the per-table
// and per-predicate tables in the storage of the previous block. done and
// cards are what the run has learnt so far, read here and never kept: the
// blocks it has finished, children first, and the output cardinality each
// produced (see tableRows).
func (e *Estimator) Reset(blk *query.Block, mode Mode, done []*query.Block, cards []float64) {
	e.blk, e.mode = blk, mode
	switch {
	case mode != Full:
		e.cache = nil
	case e.cache == nil:
		e.cache = make(map[bitset.Set]float64)
	default:
		clear(e.cache)
	}
	// One backing array holds both per-table columns, rows then filtered.
	n := len(blk.Tables)
	e.rows = slices.Grow(e.rows[:0], 2*n)
	for _, t := range blk.Tables {
		e.rows = append(e.rows, tableRows(t, done, cards))
	}
	e.filtered = append(e.rows[n:n], e.rows...)
	for _, lp := range blk.LocalPreds {
		t := blk.TableOf(lp.Col)
		e.filtered[t] *= e.localSel(lp)
	}
	for i := range e.filtered {
		if e.filtered[i] < 0.01 {
			e.filtered[i] = 0.01
		}
	}

	e.joinSel = slices.Grow(e.joinSel[:0], len(blk.JoinPreds))
	for _, jp := range blk.JoinPreds {
		e.joinSel = append(e.joinSel, e.joinPredSel(jp))
	}
}

// tableRows is the unfiltered row count of a table reference in one run: a
// base table's RowCount; for a derived table, the output cardinality the run
// gave its child block — done[j] finished with cards[j] — and 1 when the run
// has no positive one. Runs visit blocks children-first
// (query.Block.Blocks), so a parent's children are all in done when it
// starts, and the answer depends on the run alone, never on the block.
func tableRows(t *query.TableRef, done []*query.Block, cards []float64) float64 {
	if t.Table != nil {
		return t.Table.RowCount
	}
	for j, b := range done {
		if b == t.Derived && cards[j] > 0 {
			return cards[j]
		}
	}
	return 1
}

// localSel returns the selectivity of one local predicate under the current
// mode. Full mode consults a synthesized histogram; simple mode uses the
// predicate's recorded selectivity (1/NDV or the System R defaults filled in
// at Finalize time).
func (e *Estimator) localSel(lp query.LocalPred) float64 {
	if e.mode == Simple {
		return lp.Selectivity
	}
	col := e.blk.Column(lp.Col)
	h := e.histogramFor(col)
	switch lp.Op {
	case query.Eq:
		// Respect an explicitly tightened selectivity but refine the
		// default with the histogram.
		def := 1 / math.Max(col.Col.NDV, 1)
		if lp.Selectivity > 0 && math.Abs(lp.Selectivity-def) > def*1e-9 {
			// Explicit selectivity: scale by the histogram's skew ratio.
			return clampSel(lp.Selectivity * h.SelEq() / def)
		}
		return h.SelEq()
	case query.Ne:
		return clampSel(1 - h.SelEq())
	default:
		return h.SelRange(lp.Selectivity)
	}
}

// joinPredSel returns the selectivity of a join predicate. Both modes use
// 1/max(NDV) for equality, but full mode upgrades the NDV of unique-indexed
// columns to the table's row count (the "effect of keys" that simple mode
// deliberately ignores). Non-equality join predicates use the System R 1/3.
func (e *Estimator) joinPredSel(jp query.JoinPred) float64 {
	if jp.Op != query.Eq {
		return 1.0 / 3
	}
	l, r := e.effNDV(jp.Left), e.effNDV(jp.Right)
	return 1 / math.Max(math.Max(l, r), 1)
}

// effNDV returns the effective distinct-value count of a column: full mode
// recognizes single-column unique indexes as proof of key-ness.
func (e *Estimator) effNDV(id query.ColID) float64 {
	col := e.blk.Column(id)
	ndv := col.Col.NDV
	if e.mode == Full && col.Ref.Table != nil {
		for _, ix := range col.Ref.Table.Indexes {
			if ix.Unique && len(ix.Columns) == 1 && ix.Columns[0] == col.Col.Name {
				if col.Ref.Table.RowCount > ndv {
					ndv = col.Ref.Table.RowCount
				}
			}
		}
	}
	return ndv
}

// histogramFor synthesizes (without caching — full-mode costing is supposed
// to pay the real price of histogram work per estimate, as commercial cost
// models do) the histogram of a column.
func (e *Estimator) histogramFor(col *query.ColumnRef) *Histogram {
	rows := e.rows[col.Ref.Index]
	return SynthesizeHistogram(rows, col.Col.NDV, col.Ref.Alias+"."+col.Col.Name)
}

// Rows returns the unfiltered row count of one table in this run.
func (e *Estimator) Rows(t int) float64 { return e.rows[t] }

// FilteredCard returns the cardinality of one table after local predicates.
func (e *Estimator) FilteredCard(t int) float64 { return e.filtered[t] }

// JoinSel returns the selectivity of join predicate i.
func (e *Estimator) JoinSel(i int) float64 { return e.joinSel[i] }

// JoinCard returns the cardinality of the union of two disjoint table sets
// whose own cardinalities the caller holds (the MEMO entries cache them).
// Simple mode composes it incrementally — sCard*lCard times the
// cross-predicate selectivities, no lookup and nothing stored — which is part
// of what makes plan-estimate mode cheap; full mode falls back to the
// complete recomputation so its key caps stay exact.
func (e *Estimator) JoinCard(s, l bitset.Set, sCard, lCard float64) float64 {
	if e.mode == Full {
		return e.Card(s.Union(l))
	}
	card := sCard * lCard
	e.predBuf = e.blk.AppendPredsBetween(e.predBuf[:0], s, l)
	for _, pi := range e.predBuf {
		card *= e.joinSel[pi]
	}
	if card < 0.01 {
		card = 0.01
	}
	return card
}

// Card returns the cardinality of a table set: the product of filtered base
// cardinalities and the selectivities of all join predicates applied within
// the set, with key-based capping in full mode, where results are memoized
// (keyCap asks for the same subsets over and over). Simple mode computes
// afresh: the enumerator asks it for single tables only, once each.
func (e *Estimator) Card(s bitset.Set) float64 {
	if c, ok := e.cache[s]; ok {
		return c
	}
	card := 1.0
	for t := s.Next(0); t >= 0; t = s.Next(t + 1) {
		card *= e.filtered[t]
	}
	// A stack buffer, not a field: keyCap recurses into Card.
	var buf [64]int
	preds := e.blk.AppendPredsWithin(buf[:0], s)
	for _, pi := range preds {
		card *= e.joinSel[pi]
	}
	if e.mode == Full {
		card = e.keyCap(s, card, preds)
	}
	if card < 0.01 {
		card = 0.01
	}
	if e.mode == Full {
		e.cache[s] = card
	}
	return card
}

// keyCap applies key-derived upper bounds: when a table's single-column
// unique key is equality-joined inside the set, each row of the rest of the
// set matches at most one row of that table, so the joined cardinality
// cannot exceed the cardinality of the set without it. preds are the join
// predicates within s.
func (e *Estimator) keyCap(s bitset.Set, card float64, preds []int) float64 {
	if s.Len() < 2 {
		return card
	}
	blk := e.blk
	for _, pi := range preds {
		jp := blk.JoinPreds[pi]
		if jp.Op != query.Eq {
			continue
		}
		for _, side := range []query.ColID{jp.Left, jp.Right} {
			if !e.isUniqueKey(side) {
				continue
			}
			rest := s.Remove(blk.TableOf(side))
			if rest.Empty() {
				continue
			}
			// Recursion terminates: rest is strictly smaller than s.
			if bound := e.Card(rest); card > bound {
				card = bound
			}
		}
	}
	return card
}

// isUniqueKey reports whether the column has a single-column unique index.
func (e *Estimator) isUniqueKey(id query.ColID) bool {
	col := e.blk.Column(id)
	if col.Ref.Table == nil {
		return false
	}
	for _, ix := range col.Ref.Table.Indexes {
		if ix.Unique && len(ix.Columns) == 1 && ix.Columns[0] == col.Col.Name {
			return true
		}
	}
	return false
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
