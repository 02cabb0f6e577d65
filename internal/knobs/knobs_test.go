package knobs

import (
	"math"
	"testing"

	"cote/internal/cost"
)

func TestResolveDefaults(t *testing.T) {
	if CostConfig(nil) != cost.Serial {
		t.Error("CostConfig(nil) != cost.Serial")
	}
	if BudgetFactor(0) != 0 || MemBudget(0) != 0 {
		t.Errorf("zero budgets = %v/%v, want disabled", BudgetFactor(0), MemBudget(0))
	}
}

func TestResolveKeepsExplicitValues(t *testing.T) {
	if CostConfig(cost.Parallel4) != cost.Parallel4 {
		t.Error("CostConfig must pass explicit configs through")
	}
	if got := BudgetFactor(2.5); got != 2.5 {
		t.Errorf("BudgetFactor(2.5) = %v, want unchanged", got)
	}
	if got := MemBudget(1 << 20); got != 1<<20 {
		t.Errorf("MemBudget(1<<20) = %v, want unchanged", got)
	}
}

func TestResolveClampsNegatives(t *testing.T) {
	if BudgetFactor(-1) != 0 || MemBudget(-5) != 0 {
		t.Errorf("clamped to %v/%v, want disabled", BudgetFactor(-1), MemBudget(-5))
	}
}

func TestHelpers(t *testing.T) {
	if CostConfig(nil) != cost.Serial {
		t.Error("CostConfig(nil) != cost.Serial")
	}
	if CostConfig(cost.Parallel4) != cost.Parallel4 {
		t.Error("CostConfig must pass explicit configs through")
	}
	if BudgetFactor(math.NaN()) != 0 {
		t.Error("BudgetFactor(NaN) must disable")
	}
	if MemBudget(-1) != 0 || MemBudget(42) != 42 {
		t.Error("MemBudget clamp broken")
	}
}
