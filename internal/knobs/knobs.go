// Package knobs is the single defaulting path for the tuning knobs shared
// across the optimizer layers. Before it existed, internal/opt, internal/core,
// internal/plangen and internal/service each re-implemented the same defaults
// (nil cost config means serial, budget knobs disable at zero); drift between
// those copies is exactly the kind of bug a cross-cutting refactor invites,
// so the copies now all call here.
package knobs

import (
	"math"

	"cote/internal/cost"
)

// CostConfig returns cfg, or the serial configuration when nil — the
// default previously copied into opt, core and plangen.
func CostConfig(cfg *cost.Config) *cost.Config {
	if cfg == nil {
		return cost.Serial
	}
	return cfg
}

// BudgetFactor clamps the plan-budget slack factor: non-positive disables.
func BudgetFactor(f float64) float64 {
	if f <= 0 || math.IsNaN(f) {
		return 0
	}
	return f
}

// MemBudget clamps the memory budget: non-positive disables.
func MemBudget(n int64) int64 {
	if n < 0 {
		return 0
	}
	return n
}
