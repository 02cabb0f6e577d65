// Package knobs is the single defaulting and validation path for the
// tuning knobs shared across the optimizer layers. Before it existed,
// internal/opt, internal/core, internal/plangen and internal/service each
// re-implemented the same defaults (nil cost config means serial, budget
// knobs disable at zero); drift between
// those copies is exactly the kind of bug a cross-cutting refactor invites,
// so the copies now all call here.
package knobs

import (
	"fmt"
	"math"

	"cote/internal/cost"
)

// Set is the cross-layer knob set in its validated, fully-defaulted form.
// Layers embed the raw knobs in their own Options/Config structs (their
// shapes differ too much to share) and resolve them through this one path.
type Set struct {
	// Config is the cost configuration; nil defaults to serial.
	Config *cost.Config
	// BudgetFactor scales the COTE-predicted plan count into the
	// generated-plan abort budget; zero (or negative) disables the abort.
	BudgetFactor float64
	// MemBudget bounds a compile's measured optimizer memory in bytes;
	// zero (or negative) disables the memory abort.
	MemBudget int64
}

// Resolve returns the set with every default applied, or an error for
// values no defaulting can repair.
func (s Set) Resolve() (Set, error) {
	if math.IsNaN(s.BudgetFactor) || math.IsInf(s.BudgetFactor, 0) {
		return s, fmt.Errorf("knobs: budget factor must be finite, got %v", s.BudgetFactor)
	}
	s.Config = CostConfig(s.Config)
	s.BudgetFactor = BudgetFactor(s.BudgetFactor)
	s.MemBudget = MemBudget(s.MemBudget)
	return s, nil
}

// MustResolve is Resolve for the internal call sites whose inputs are
// already finite by construction; it panics on a validation error.
func MustResolve(s Set) Set {
	out, err := s.Resolve()
	if err != nil {
		panic(err)
	}
	return out
}

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
