// Package enum implements the bottom-up dynamic-programming join enumerator
// of the reproduced optimizer, in the System R tradition the paper assumes.
//
// The enumerator is deliberately decoupled from plan generation through a
// thin callback interface (Hooks), exactly the extensible-optimizer split
// the paper leans on: real optimization installs plan-generating hooks,
// while the compilation-time estimator installs the cheap initialize /
// accumulate_plans hooks of Table 3 and bypasses plan generation entirely.
// Both modes therefore enumerate the same joins — up to the
// cardinality-sensitive Cartesian-product heuristic, whose dependence on the
// cardinality model is a documented error source of the paper.
//
// Enumeration is performed on a logical basis: two non-overlapping table
// sets join when at least one predicate links them (or a Cartesian product
// is permitted). Each eligible (outer, inner) orientation is emitted as one
// enumerated join, so a fully reorderable pair yields two joins — which is
// why the paper observes hash-join plans to be exactly twice the number of
// (unordered) joins.
package enum

import (
	"fmt"

	"cote/internal/bitset"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/optctx"
	"cote/internal/query"
)

// Shape restricts the join-tree shapes the enumerator explores — one of the
// "knobs" that create intermediate optimization levels.
type Shape int

// Join-tree shapes.
const (
	// Bushy explores all shapes (the paper's "high" level).
	Bushy Shape = iota
	// ZigZag requires one input of every join to be a single table, in
	// either role.
	ZigZag
	// LeftDeep requires the inner of every join to be a single table.
	LeftDeep
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Bushy:
		return "bushy"
	case ZigZag:
		return "zigzag"
	case LeftDeep:
		return "leftdeep"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// CartesianPolicy governs Cartesian products.
type CartesianPolicy int

// Cartesian-product policies.
const (
	// CartesianCardOne allows a product when one input's estimated
	// cardinality is (near) one — DB2's heuristic, reproduced including its
	// sensitivity to the cardinality model.
	CartesianCardOne CartesianPolicy = iota
	// CartesianNever forbids products entirely.
	CartesianNever
	// CartesianAlways permits any product (the full search space).
	CartesianAlways
)

// cartesianCardThreshold is the "cardinality of one" cutoff; estimates are
// floats so exact equality would be meaningless.
const cartesianCardThreshold = 1.5

// Cancellation poll strides. Polling the execution context costs an atomic
// load plus a deadline comparison — cheap, but not free on loops whose body
// is a handful of bitset ops. The strides bound cancellation latency
// instead: between two polls the enumerator performs at most one poll
// period of scan or generation work, each unit tens of nanoseconds to a few
// microseconds, so a deadline or budget abort lands within well under a
// millisecond of extra work — negligible against the millisecond-scale
// budgets MOP hands out — while the poll cost stays off the per-pair path.
const (
	// outerPollMask polls once per 16 outer entries of a size-class scan
	// (each outer drives at most one size class's worth of inner work).
	outerPollMask = 15
	// joinPollMask polls once per 64 emitted joins, where each unit
	// includes plan generation (microseconds, the dominant per-join cost
	// of real optimization).
	joinPollMask = 63
)

// Options are the enumerator knobs. The zero value is the full bushy search
// with DB2's Cartesian heuristic and no composite-inner limit.
type Options struct {
	Shape Shape
	// CompositeInnerLimit caps the table count of a composite inner
	// (0 = unlimited): the paper's experiments run DB2 "with certain limits
	// on the composite inner size of a join".
	CompositeInnerLimit int
	Cartesian           CartesianPolicy
	// Exec, when non-nil, is polled for cancellation at size-class and
	// bounded-stride granularity: a deadline or budget abort stops the
	// enumeration promptly instead of letting it run to completion. A nil
	// Exec is never cancelled and adds no per-join work.
	Exec *optctx.Ctx
}

// Hooks are the callbacks the enumerator drives. Init is invoked once per
// MEMO entry right after its logical properties are cached; Join is invoked
// once per enumerated (outer, inner) join, after the result entry exists;
// Complete is invoked once per entry when no further joins will produce
// plans for it (all base entries first, then each size class as its
// dynamic-programming round finishes) — the point where the shared-nothing
// (partitioned) optimizer places its eager enforcers.
type Hooks struct {
	Init     func(e *memo.Entry)
	Join     func(outer, inner, result *memo.Entry)
	Complete func(e *memo.Entry)
}

// Stats reports what one enumeration did.
type Stats struct {
	// Joins is the number of enumerated (ordered) joins — Join callbacks.
	Joins int
	// Pairs is the number of distinct unordered table-set pairs joined —
	// the join count in the sense of Ono & Lohman.
	Pairs int
	// Entries is the number of MEMO entries created.
	Entries int
	// CandidatesVisited counts the (outer, inner) slots of the DPsize
	// size-class cross product the scan examined; CandidatesSkipped counts
	// the slots of whole (size-i, size-j) classes the shape and
	// composite-inner knobs rule out before any pair is looked at. Their sum
	// is the full cross product for the query, whatever the knobs, and
	// Pairs/CandidatesVisited is the fraction of examined slots that joined.
	CandidatesVisited int
	CandidatesSkipped int
}

// Enumerator runs the DP join enumeration for one query block.
type Enumerator struct {
	blk  *query.Block
	mem  *memo.Memo
	card *cost.Estimator
	opts Options
	// stop latches a cancellation observed mid-scan so the remaining loops
	// unwind without re-polling the context at every level.
	stop bool
}

// New builds an enumerator writing into mem and using card for the logical
// cardinality of each entry (the estimator mode chosen by the caller is
// what differentiates real compilation from plan-estimate mode).
func New(blk *query.Block, mem *memo.Memo, card *cost.Estimator, opts Options) *Enumerator {
	return &Enumerator{blk: blk, mem: mem, card: card, opts: opts}
}

// Run enumerates all joins bottom-up, invoking the hooks, and returns the
// enumeration statistics. An error is returned when the query cannot be
// fully joined under the current knobs (e.g. a disconnected join graph with
// Cartesian products disabled).
func (en *Enumerator) Run(hooks Hooks) (Stats, error) {
	var st Stats
	n := en.blk.NumTables()

	en.runBase(&st, hooks)
	for k := 2; k <= n; k++ {
		en.scanSizeClass(k, &st, hooks)
		if en.stop || en.opts.Exec.Cancelled() {
			return st, en.opts.Exec.Err()
		}
		en.completeSize(k, hooks)
	}
	return st, en.checkRoot()
}

// runBase creates the single-table MEMO entries and completes size class 1.
func (en *Enumerator) runBase(st *Stats, hooks Hooks) {
	n := en.blk.NumTables()
	for t := 0; t < n; t++ {
		e := en.createEntry(bitset.Single(t), hooks)
		st.Entries++
		e.OuterEligible = en.singleOuterEligible(t)
	}
	en.completeSize(1, hooks)
}

// scanSizeClass walks the (outer, inner) pairs of size class k in the
// canonical dynamic-programming order, materializing result entries and
// counting stats, and calls the Join hook once per admitted ordered join.
//
// The scan is the DPsize cross product of each (size-i, size-j) class pair:
// a slot is rejected by one Overlaps on the table sets and one on the cached
// neighbor mask (joinable). The only shortcut is classAdmissible, which
// drops a class pair whose sizes no orientation can pass.
func (en *Enumerator) scanSizeClass(k int, st *Stats, hooks Hooks) {
	for i := 1; i <= k/2; i++ {
		j := k - i
		smaller := en.mem.OfSize(i)
		larger := en.mem.OfSize(j)
		if len(smaller) == 0 || len(larger) == 0 {
			continue
		}
		if !en.classAdmissible(i, j) {
			// No orientation of any (size-i, size-j) pair can pass the
			// size-dependent shape/composite-inner knobs, so walking the
			// cross product would emit nothing (Pairs/Joins/Entries are
			// counted only after an orientation is admitted). Skip the
			// class wholesale.
			st.CandidatesSkipped += classPairs(i, j, len(smaller), len(larger))
			continue
		}
		for si, S := range smaller {
			if en.stop {
				return
			}
			if si&outerPollMask == 0 && en.opts.Exec.Cancelled() {
				en.stop = true
				return
			}
			en.scanFull(i, j, si, S, larger, st, hooks)
		}
	}
}

// classPairs is the number of slots in the cross product of a (size-i,
// size-j) class pair, except that the i == j diagonal pairs each unordered
// couple once.
func classPairs(i, j, ns, nl int) int {
	if i == j {
		return nl * (nl - 1) / 2
	}
	return ns * nl
}

// scanFull is the inner loop of one outer S over the whole size-j class.
func (en *Enumerator) scanFull(i, j, si int, S *memo.Entry, larger []*memo.Entry, st *Stats, hooks Hooks) {
	for li, L := range larger {
		if en.stop {
			return
		}
		if i == j && li <= si {
			continue // unordered pairs once
		}
		st.CandidatesVisited++
		if S.Tables.Overlaps(L.Tables) {
			continue
		}
		if !en.joinable(S, L) {
			continue
		}
		en.tryEmit(S, L, st, hooks)
	}
}

// tryEmit applies the per-pair admission checks — outer-join set validity
// and per-orientation eligibility — creating the result entry and emitting
// the admitted orientations. S and L are known disjoint and joinable when
// this is called.
func (en *Enumerator) tryEmit(S, L *memo.Entry, st *Stats, hooks Hooks) {
	union := S.Tables.Union(L.Tables)
	if !en.validSet(union) {
		return
	}
	emitSL := en.orientationAllowed(S, L)
	emitLS := en.orientationAllowed(L, S)
	if !emitSL && !emitLS {
		return
	}
	result := en.mem.Entry(union)
	if result == nil {
		result = en.createJoinEntry(union, S, L, hooks)
		st.Entries++
	}
	st.Pairs++
	if emitSL {
		en.emit(S, L, result, st, hooks)
	}
	if emitLS {
		en.emit(L, S, result, st, hooks)
	}
}

// emit counts one admitted ordered join and runs the Join hook on it.
func (en *Enumerator) emit(outer, inner, result *memo.Entry, st *Stats, hooks Hooks) {
	st.Joins++
	if hooks.Join != nil {
		hooks.Join(outer, inner, result)
	}
	// Bound the cancellation latency of long size classes: one poll per
	// joinPollMask+1 joins keeps the overhead off the per-join path while a
	// deadline still lands within a small, fixed amount of generation work.
	if st.Joins&joinPollMask == 0 && en.opts.Exec.Cancelled() {
		en.stop = true
	}
}

// classAdmissible reports whether some (outer, inner) orientation of a
// (size-i, size-j) pair can pass orientationAllowed's size-dependent knobs.
// Outer-eligibility is entry-specific and checked per pair; the shape and
// composite-inner knobs depend only on the sizes, so an inadmissible class
// can be skipped wholesale.
func (en *Enumerator) classAdmissible(i, j int) bool {
	return en.sizeAllowed(i, j) || en.sizeAllowed(j, i)
}

// completeSize fires the Complete hook for every entry of size k.
func (en *Enumerator) completeSize(k int, hooks Hooks) {
	if hooks.Complete == nil {
		return
	}
	for _, e := range en.mem.OfSize(k) {
		hooks.Complete(e)
	}
}

// checkRoot verifies that enumeration reached the full table set.
func (en *Enumerator) checkRoot() error {
	if en.mem.Entry(en.blk.AllTables()) == nil {
		return fmt.Errorf("enum: query %q not fully joinable under %v/%v (disconnected graph?)",
			en.blk.Name, en.opts.Shape, en.opts.Cartesian)
	}
	return nil
}

// createEntry materializes the MEMO entry for s with its logical properties
// cached, then runs the Init hook.
func (en *Enumerator) createEntry(s bitset.Set, hooks Hooks) *memo.Entry {
	e, created := en.mem.GetOrCreate(s)
	if !created {
		return e
	}
	e.Card = en.card.Card(s)
	e.Neighbors = en.blk.Neighbors(s)
	en.mem.InitBase(e, en.blk)
	en.finishEntry(e, s, hooks)
	return e
}

// createJoinEntry materializes the entry for the union of two existing
// entries, handing the cardinality estimator the parts' cached cardinalities
// so it can compose the union's from them when its mode supports it. The
// neighbor mask composes the same way: N(S ∪ L) = (N(S) ∪ N(L)) \ (S ∪ L),
// exact because both sides unfold to the members' adjacency sets minus the
// union — so maintaining the neighbor masks costs three bitset ops per
// created entry instead of a walk over its tables. The predicate sides, and
// the equivalence classes built from them, compose alike (Memo.InitJoin).
func (en *Enumerator) createJoinEntry(union bitset.Set, S, L *memo.Entry, hooks Hooks) *memo.Entry {
	e, created := en.mem.GetOrCreate(union)
	if !created {
		return e
	}
	e.Card = en.card.JoinCard(S.Tables, L.Tables, S.Card, L.Card)
	e.Neighbors = S.Neighbors.Union(L.Neighbors).Diff(union)
	en.mem.InitJoin(e, S, L, en.blk)
	en.finishEntry(e, union, hooks)
	return e
}

// finishEntry marks a new entry's outer-eligibility and runs the Init hook.
func (en *Enumerator) finishEntry(e *memo.Entry, s bitset.Set, hooks Hooks) {
	e.OuterEligible = en.compositeOuterEligible(s)
	if hooks.Init != nil {
		hooks.Init(e)
	}
}

// singleOuterEligible applies the outer-eligibility rules to a single
// table: the null-producing side of a pending outer join and correlated
// derived tables must be the inner (paper Section 4, experience item 3).
func (en *Enumerator) singleOuterEligible(t int) bool {
	for _, oj := range en.blk.OuterJoins {
		if oj.NullProducing == t {
			return false
		}
	}
	if ref := en.blk.Tables[t]; ref.Correlated {
		return false
	}
	return true
}

// compositeOuterEligible marks composite sets. Valid sets have all their
// outer joins applied, so only correlation matters: a set whose only table
// is a correlated subquery stays inner; once joined with binding tables it
// becomes eligible.
func (en *Enumerator) compositeOuterEligible(s bitset.Set) bool {
	if s.Len() == 1 {
		return en.singleOuterEligible(s.Min())
	}
	return true
}

// validSet enforces the outer-join reordering restriction: a set containing
// a null-producing table must either be exactly that single table or
// already include every preserving table its ON predicate references (free
// reordering without compensation, the DB2 variant the paper describes).
func (en *Enumerator) validSet(s bitset.Set) bool {
	for _, oj := range en.blk.OuterJoins {
		if s.Contains(oj.NullProducing) && s != bitset.Single(oj.NullProducing) && !oj.PredReq.SubsetOf(s) {
			return false
		}
	}
	return true
}

// joinable reports whether S and L may be joined: linked by a predicate, or
// permitted as a Cartesian product by the active policy. The cardinality
// dependence of CartesianCardOne is the hook through which the simple
// cardinality model of plan-estimate mode can change the set of joins
// enumerated — the HSJN estimation error analyzed in Section 5.2.
func (en *Enumerator) joinable(S, L *memo.Entry) bool {
	// S.Neighbors is the cached Block.Neighbors(S.Tables), so the
	// connectivity test is one AND instead of a walk over S's tables.
	if S.Neighbors.Overlaps(L.Tables) {
		return true
	}
	switch en.opts.Cartesian {
	case CartesianAlways:
		return true
	case CartesianCardOne:
		return S.Card <= cartesianCardThreshold || L.Card <= cartesianCardThreshold
	default:
		return false
	}
}

// orientationAllowed reports whether (outer, inner) may be emitted: the
// outer must be outer-eligible and the shape and composite-inner knobs must
// admit the inner.
func (en *Enumerator) orientationAllowed(outer, inner *memo.Entry) bool {
	return outer.OuterEligible && en.sizeAllowed(outer.Tables.Len(), inner.Tables.Len())
}

// sizeAllowed is the size-dependent part of orientationAllowed: whether the
// shape and composite-inner knobs admit an (outerSize, innerSize)
// orientation. classAdmissible uses it to discard whole size classes.
func (en *Enumerator) sizeAllowed(outerSize, innerSize int) bool {
	switch en.opts.Shape {
	case LeftDeep:
		if innerSize != 1 {
			return false
		}
	case ZigZag:
		if innerSize != 1 && outerSize != 1 {
			return false
		}
	}
	return en.opts.CompositeInnerLimit <= 0 || innerSize <= en.opts.CompositeInnerLimit
}
