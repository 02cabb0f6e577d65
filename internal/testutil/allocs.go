package testutil

import (
	"runtime"
	"runtime/debug"
)

// AllocsWithoutGC returns what one call of f allocates on average over runs
// calls, in objects and in bytes, measured in a state no sync.Pool can
// change underneath: f runs twice first to warm whatever it pools (an arena
// grows on the first call and settles into one chunk per slab on the
// second), and the garbage collector, which empties pools, is held off for
// the measured calls only. Like testing.AllocsPerRun it runs at
// GOMAXPROCS 1 and truncates the object count to whole allocations per
// call, so a one-off growth inside the window (a timer heap, a histogram)
// does not read as a per-call allocation.
func AllocsWithoutGC(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	f()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
