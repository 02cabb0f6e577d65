// Parallel plan counting.
//
// The estimation pass inherits the dependency structure the parallel DP
// driver (enum.RunParallel) already exploits for real optimization: within
// size class k, accumulate_plans reads only the interesting-property lists
// of the (size < k) inputs — final since the previous classes — while its
// writes all target the size-k result entry. The pass therefore splits the
// same way plan generation does:
//
//   - counting (the per-method arithmetic over the inputs' lists, the bulk
//     of the work) runs on workers, into forked worker-local counters;
//   - property propagation (the only mutation, first-join-only gated)
//     replays on the driver in canonical commit order.
//
// Per-method counts merge back by integer addition, which is exact and
// order-independent, so PlanCounts, property lists, enumeration statistics
// and the MEMO's durable accounting are bit-identical to the serial pass at
// every parallelism degree — the same guarantee the determinism suite pins
// for optimization. The scope the workers share is immutable, and the MEMO
// arena stored properties take their columns from is carved by the
// driver-side propagation alone, so neither needs a lock.
package core

import (
	"unsafe"

	"cote/internal/enum"
	"cote/internal/memo"
)

// countLane is one counting stream of a parallel estimation pass: a
// worker-local fork of cnt accumulates every join admit accepts. A nil
// admit accepts every join (the plain single-level pass); EstimateLevels
// installs one lane per requested level with its search-space filter.
type countLane struct {
	cnt   *counter
	admit func(outer, inner *memo.Entry) bool
}

// cntTask is one buffered enumerated join awaiting canonical-order commit.
type cntTask struct {
	task                 int
	outer, inner, result *memo.Entry
}

var cntTaskBytes = int64(unsafe.Sizeof(cntTask{}))

// cntWorker is one worker's state: forked lane counters plus the buffer of
// tasks it counted, replayed by the driver in canonical order.
type cntWorker struct {
	prop  *counter // the shared propagation counter; driver-side only
	lanes []countLane
	buf   []cntTask
	cur   int
	// maxBuf is buf's high-water length, what the scratch charge counts.
	maxBuf int
}

// generate counts one enumerated join into the worker-local lane counters
// and buffers the task for commit. It runs on a worker goroutine and reads
// only size<k entries and the worker's own scratch.
func (w *cntWorker) generate(task int, outer, inner, result *memo.Entry) {
	for _, l := range w.lanes {
		if l.admit == nil || l.admit(outer, inner) {
			l.cnt.countOnly(outer, inner, result)
		}
	}
	w.buf = append(w.buf, cntTask{task, outer, inner, result})
	w.maxBuf = max(w.maxBuf, len(w.buf))
}

// commit replays one buffered task's property propagation on the driver.
// Commits arrive in globally increasing task order (the RunParallel
// contract), which is exactly the serial enumeration order, so the
// first-join-only gate fires for the same joins it would serially.
func (w *cntWorker) commit(task int) {
	if w.cur >= len(w.buf) || w.buf[w.cur].task != task {
		panic("core: out-of-order parallel count commit")
	}
	t := w.buf[w.cur]
	w.cur++
	if w.cur == len(w.buf) {
		w.buf, w.cur = w.buf[:0], 0
	}
	p := w.prop
	if !t.result.PropsPropagated || p.everyJoin {
		outerCols, innerCols := p.joinCols(t.outer, t.inner)
		candParts := p.candidateParts(t.outer, t.inner, t.result, outerCols, innerCols)
		p.propagateWithCols(t.outer, t.inner, t.result, outerCols, candParts)
	}
}

// fork clones the counter for a worker goroutine or a counting lane: the
// immutable configuration is shared — including the compound-vector map, which
// workers only ever read for size<k entries while the driver writes size-k
// vectors strictly after the class barrier — while counts, joins and the
// per-join scratch buffers are private.
func (c *counter) fork() *counter {
	return &counter{
		blk: c.blk, sc: c.sc, mem: c.mem,
		parallel: c.parallel, nodes: c.nodes,
		policy: c.policy, mode: c.mode, everyJoin: c.everyJoin,
		pipeFactor: c.pipeFactor,
		expTables:  c.expTables,
		vecs:       c.vecs,
		joinRep:    make([]bool, len(c.joinRep)),
	}
}

// parallelCountHooks builds the parallel harness shared by EstimatePlans
// and EstimateLevels: prop propagates (and initializes fresh entries) on
// the driver; every counting lane is forked once per worker, and finish
// folds the forks' counts, joins and scratch high-water back into the
// lanes' counters. Call finish after RunParallel returns, even on error:
// partial counts keep the accountant's scratch charge honest.
func parallelCountHooks(prop *counter, lanes []countLane) (enum.ParallelHooks, func()) {
	var ws []*cntWorker
	hooks := enum.ParallelHooks{
		Init: prop.initialize,
		NewWorker: func() (enum.GenerateFunc, enum.CommitFunc) {
			w := &cntWorker{prop: prop, lanes: make([]countLane, len(lanes))}
			for i, l := range lanes {
				w.lanes[i] = countLane{cnt: l.cnt.fork(), admit: l.admit}
			}
			ws = append(ws, w)
			return w.generate, w.commit
		},
	}
	finish := func() {
		for _, w := range ws {
			for i, l := range w.lanes {
				dst := lanes[i].cnt
				dst.counts.Add(l.cnt.counts)
				dst.joins += l.cnt.joins
				dst.extraScratch += l.cnt.scratchBytes()
			}
			prop.extraScratch += int64(w.maxBuf) * cntTaskBytes
		}
	}
	return hooks, finish
}
