package service

import (
	"time"

	"cote/internal/opt"
)

// AdmissionAction is what the admission controller decided about a full
// optimization request.
type AdmissionAction string

// Admission actions.
const (
	// AdmitAccept runs the optimization at the requested level: its
	// predicted compilation time fits the budget (or no budget is set).
	AdmitAccept AdmissionAction = "accept"
	// AdmitDowngrade runs the optimization at a cheaper level than
	// requested, the costliest one whose prediction fits the budget.
	AdmitDowngrade AdmissionAction = "downgrade"
	// AdmitReject refuses the optimization: over budget and downgrading
	// was not allowed.
	AdmitReject AdmissionAction = "reject"
	// AdmitBypass runs unchecked: no calibrated model is available, so
	// compilation time cannot be priced.
	AdmitBypass AdmissionAction = "bypass"
)

// AdmissionDecision records the controller's choice and the numbers behind
// it. It is the paper's Figure 1 decision ("is further optimization worth
// its compilation time?") with the plan-benefit side replaced by an
// operator-set compile-time budget — and, since the resource-accounting
// layer, a peak-memory budget gating on the memory model's prediction.
type AdmissionDecision struct {
	Action         AdmissionAction `json:"action"`
	RequestedLevel string          `json:"requested_level"`
	AdmittedLevel  string          `json:"admitted_level,omitempty"`
	// PredictedNS is the model's compilation-time prediction for the
	// requested level, in nanoseconds (absent under bypass).
	PredictedNS int64 `json:"predicted_ns,omitempty"`
	// BudgetNS is the budget the prediction was compared against.
	BudgetNS int64 `json:"budget_ns,omitempty"`
	// PredictedBytes is the memory model's predicted peak optimizer memory
	// for the requested level; MemBudgetBytes is the budget it was compared
	// against. Both absent when no memory budget is set.
	PredictedBytes int64 `json:"predicted_bytes,omitempty"`
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// admit prices the requested optimization level with the cheap estimator
// and decides accept / downgrade / reject. predict returns the predicted
// compilation time of one level (the server routes it through the estimate
// cache, so repeated admissions of the same statement shape are nearly
// free); predictMem returns the memory model's predicted peak bytes (zero
// when unpriceable). A level is admitted only when every armed budget fits:
// time within budget (or unpriceable — no model means no basis to refuse)
// and predicted peak memory within memBudget. Zero budgets disarm their
// predicate; with both disarmed, or nothing priceable, control is bypassed.
// The greedy low level never needs admission: its cost is polynomial and it
// is the floor every downgrade ends at.
func admit(requested opt.Level, budget time.Duration, memBudget int64, allowDowngrade bool,
	predict func(opt.Level) (time.Duration, bool, error),
	predictMem func(opt.Level) (int64, error)) (*AdmissionDecision, error) {

	dec := &AdmissionDecision{
		RequestedLevel: LevelName(requested),
		AdmittedLevel:  LevelName(requested),
	}
	if budget > 0 {
		dec.BudgetNS = budget.Nanoseconds()
	}
	if memBudget > 0 {
		dec.MemBudgetBytes = memBudget
	}
	if (budget <= 0 && memBudget <= 0) || requested == opt.LevelLow {
		dec.Action = AdmitAccept
		return dec, nil
	}
	// check prices one level against every armed budget. priced reports
	// whether any predicate could be priced at all; record stores the
	// requested level's predictions on the decision.
	check := func(l opt.Level, record bool) (fits, priced bool, err error) {
		fits = true
		if budget > 0 {
			p, ok, err := predict(l)
			if err != nil {
				return false, false, err
			}
			if ok {
				priced = true
				if record {
					dec.PredictedNS = p.Nanoseconds()
				}
				if p > budget {
					fits = false
				}
			}
		}
		if memBudget > 0 {
			pb, err := predictMem(l)
			if err != nil {
				return false, false, err
			}
			if pb > 0 {
				priced = true
				if record {
					dec.PredictedBytes = pb
				}
				if pb > memBudget {
					fits = false
				}
			}
		}
		return fits, priced, nil
	}
	fits, priced, err := check(requested, true)
	if err != nil {
		return nil, err
	}
	if !priced {
		dec.Action = AdmitBypass
		return dec, nil
	}
	if fits {
		dec.Action = AdmitAccept
		return dec, nil
	}
	if !allowDowngrade {
		dec.Action = AdmitReject
		dec.AdmittedLevel = ""
		return dec, nil
	}
	// Walk down the level ladder (opt.Level.NextLower, the rungs the
	// meta-optimizer's budget abort also walks) to the costliest level that
	// fits; the greedy floor always fits.
	for l := requested.NextLower(); ; l = l.NextLower() {
		if l == opt.LevelLow {
			dec.Action = AdmitDowngrade
			dec.AdmittedLevel = LevelName(l)
			return dec, nil
		}
		fits, priced, err := check(l, false)
		if err != nil {
			return nil, err
		}
		if !priced || fits {
			dec.Action = AdmitDowngrade
			dec.AdmittedLevel = LevelName(l)
			return dec, nil
		}
	}
}
