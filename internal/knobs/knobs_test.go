package knobs

import (
	"math"
	"testing"

	"cote/internal/cost"
)

func TestResolveDefaults(t *testing.T) {
	s, err := Set{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Config != cost.Serial {
		t.Errorf("Config = %v, want cost.Serial", s.Config)
	}
	if s.BudgetFactor != 0 || s.MemBudget != 0 {
		t.Errorf("budgets = %v/%v, want disabled", s.BudgetFactor, s.MemBudget)
	}
}

func TestResolveKeepsExplicitValues(t *testing.T) {
	in := Set{Config: cost.Parallel4, BudgetFactor: 2.5, MemBudget: 1 << 20}
	s, err := in.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s != in {
		t.Errorf("Resolve(%+v) = %+v, want unchanged", in, s)
	}
}

func TestResolveClampsNegatives(t *testing.T) {
	s, err := Set{BudgetFactor: -1, MemBudget: -5}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.BudgetFactor != 0 || s.MemBudget != 0 {
		t.Errorf("Resolve clamped to %+v", s)
	}
}

func TestResolveRejectsNonFinite(t *testing.T) {
	if _, err := (Set{BudgetFactor: math.NaN()}).Resolve(); err == nil {
		t.Error("NaN budget factor must not resolve")
	}
	if _, err := (Set{BudgetFactor: math.Inf(1)}).Resolve(); err == nil {
		t.Error("Inf budget factor must not resolve")
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

func TestMustResolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustResolve must panic on invalid input")
		}
	}()
	MustResolve(Set{BudgetFactor: math.Inf(1)})
}
