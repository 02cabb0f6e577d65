package core

import (
	"context"
	"errors"
	"testing"

	"cote/internal/opt"
)

// A near-zero model makes MOP always choose to recompile; the budget factor
// then decides whether the recompilation survives.
func mopFastModel() *TimeModel { return &TimeModel{Tinst: 1e-9} }

func TestMOPBudgetAbortWalksLevelLadder(t *testing.T) {
	blk := starBlock(t, 9, 3, 2, 1, 1)
	// A tiny budget relative to the (accurate) prediction aborts the high
	// level; each lower rung re-predicts and — with the same factor — aborts
	// too, until either a level fits or the greedy floor is reached.
	m := &MOP{Models: staticProvider{m: mopFastModel()}, BudgetFactor: 0.05}
	res, dec, err := m.RunCtx(context.Background(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Plan == nil {
		t.Fatal("no plan returned")
	}
	if len(dec.AbortedLevels) == 0 {
		t.Fatalf("no level aborted under a 0.05 budget factor: %+v", dec)
	}
	if dec.AbortedLevels[0] != opt.LevelHighInner2 {
		t.Errorf("first abort at %v, want the high level %v", dec.AbortedLevels[0], opt.LevelHighInner2)
	}
	if dec.Recompiled {
		// A downgraded recompile may legitimately fit a lower level's budget;
		// then the final level must sit below the aborted high level.
		if dec.FinalLevel == opt.LevelHighInner2 {
			t.Errorf("recompiled at the aborted high level: %+v", dec)
		}
	} else if dec.FinalLevel != opt.LevelLow {
		t.Errorf("not recompiled but final level %v != greedy", dec.FinalLevel)
	}
}

func TestMOPZeroBudgetFactorMatchesRun(t *testing.T) {
	mk := func() *MOP { return &MOP{Models: staticProvider{m: mopFastModel()}} }
	_, want, err := mk().Run(starBlock(t, 6, 2, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := mk().RunCtx(context.Background(), starBlock(t, 6, 2, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Recompiled != want.Recompiled || got.FinalLevel != want.FinalLevel ||
		got.FinalPlanCost != want.FinalPlanCost || len(got.AbortedLevels) != 0 {
		t.Errorf("RunCtx(Background) decision diverges from Run:\n got %+v\nwant %+v", got, want)
	}
}

func TestMOPGenerousBudgetNeverAborts(t *testing.T) {
	m := &MOP{Models: staticProvider{m: mopFastModel()}, BudgetFactor: 1000}
	_, dec, err := m.RunCtx(context.Background(), starBlock(t, 6, 2, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Recompiled || len(dec.AbortedLevels) != 0 {
		t.Errorf("a 1000x budget aborted: %+v", dec)
	}
	if dec.FinalLevel != opt.LevelHighInner2 {
		t.Errorf("final level %v, want the high level", dec.FinalLevel)
	}
}

func TestMOPRunCtxHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := (&MOP{Models: staticProvider{m: mopFastModel()}}).RunCtx(ctx, starBlock(t, 6, 2, 1, 0, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
