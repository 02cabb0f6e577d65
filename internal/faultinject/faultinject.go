// Package faultinject is a deterministic, seeded fault-injection seam for
// the serving stack. Production code marks the places that can fail for real
// — catalog swap, model persistence, pool slot acquisition, cache fills,
// enumeration memory exhaustion — with a named point and calls Check at the
// seam; a test (or the coted -fault-plan test flag) activates a Plan that
// decides, deterministically, which calls at which points fail, stall, or
// both.
//
// # Zero cost when disabled
//
// The whole package sits behind one package-level atomic guard: with no plan
// active, Check is a single atomic load and an immediate return, cheap
// enough for the estimate headline's cancellation polls. Sites on even
// hotter paths can branch on Enabled() themselves; Check does exactly that
// internally.
//
// # Determinism
//
// Every point keeps a call ordinal, and a probability rule decides call k by
// hashing (plan seed, point name, k): the decision *sequence at each point*
// is a pure function of the plan, independent of goroutine interleaving.
// Which request observes which ordinal still depends on scheduling — what a
// chaos test must assert is taxonomy and result stability, not which caller
// got unlucky — but rerunning a plan replays the same per-point fail/pass
// pattern, and an after-N or times-bounded rule trips on exactly the same
// ordinals every run.
//
// # Plan DSL
//
// A plan is a compact semicolon-separated string, accepted by ParsePlan and
// the coted -fault-plan flag:
//
//	seed=42;pool.acquire:error,p=0.2;cache.fill:latency=2ms,after=10;model.persist:error,times=3
//
// Each clause is point:directive[,directive...]; directives are
//
//	error           inject an error at the point (the Fault type)
//	latency=DUR     sleep DUR at the point before returning
//	p=F             trip with probability F in [0,1] (default 1)
//	after=N         pass the first N calls, arm from call N+1 on
//	times=K         trip at most K times, then pass forever
//
// A clause needs error or latency (or both: stall, then fail). seed=N sets
// the plan seed (default 1). Unknown point names are rejected at parse time
// against the registry of known points below, so a typo cannot silently arm
// nothing.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The named failure points threaded through the serving stack. Keeping the
// registry here (rather than scattered per package) lets ParsePlan reject
// unknown names and gives operators one place to see what can be broken.
const (
	// PointCatalogRegister fails a catalog upload just before the registry
	// commits the entry and bumps its epoch (internal/service.Registry).
	PointCatalogRegister = "catalog.register"
	// PointModelSwap fails a model-version install before the registry swap
	// (internal/service installModel: seed, calibrate, upload, rollback).
	PointModelSwap = "model.swap"
	// PointModelPersist fails the model registry's JSON persistence
	// (internal/calib Registry.Save, the coted -model-file path).
	PointModelPersist = "model.persist"
	// PointPoolAcquire fails a worker-pool slot acquisition before the
	// request enters the waiting line (internal/service.Pool.Run).
	PointPoolAcquire = "pool.acquire"
	// PointCacheFill fails the estimate-cache fill leader before it takes a
	// pool slot or runs the enumeration, so waiters sharing the flight see
	// the failure too (internal/service Server.estimate).
	PointCacheFill = "cache.fill"
	// PointMemBudget simulates enumeration memory-budget exhaustion: a trip
	// latches the execution context's memory abort, surfacing as
	// optctx.ErrMemBudgetExceeded at the next cancellation poll
	// (internal/optctx.Ctx).
	PointMemBudget = "optctx.membudget"
)

// knownPoints is the parse-time registry; see the Point constants.
var knownPoints = map[string]bool{
	PointCatalogRegister: true,
	PointModelSwap:       true,
	PointModelPersist:    true,
	PointPoolAcquire:     true,
	PointCacheFill:       true,
	PointMemBudget:       true,
}

// Points returns the known point names, sorted (for -fault-plan usage text
// and error messages).
func Points() []string {
	out := make([]string, 0, len(knownPoints))
	for p := range knownPoints {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ErrInjected is the errors.Is target of every injected fault: layers that
// must treat injected failures like real dependency failures match on their
// own error types, while tests and the service's taxonomy mapping can still
// tell an injected fault apart.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault is the error injected at a point. It unwraps to ErrInjected.
type Fault struct {
	// Point is the failure point that tripped.
	Point string
}

// Error implements error.
func (f *Fault) Error() string { return "faultinject: injected fault at " + f.Point }

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (f *Fault) Unwrap() error { return ErrInjected }

// Rule arms one point. The zero value of the optional fields means
// unconditional: probability 1, from the first call, forever.
type Rule struct {
	// Point names the failure point (one of the Point constants).
	Point string
	// Error injects a *Fault when the rule trips.
	Error bool
	// Latency, when positive, sleeps this long when the rule trips (before
	// the error, if both are set).
	Latency time.Duration
	// Prob trips each armed call with this probability (0 means 1 —
	// an explicit never-trip rule is pointless). Decisions are derived from
	// the plan seed and the call ordinal, so they are reproducible.
	Prob float64
	// After passes the first After calls untouched.
	After int64
	// Times bounds total trips (0 = unlimited).
	Times int64
}

// rule is the armed runtime form: the immutable Rule plus per-point state.
type rule struct {
	Rule
	h0    uint64 // point-name hash, folded into the per-call decision
	calls atomic.Int64
	trips atomic.Int64
}

// Plan is a set of armed rules with a shared seed. Activate installs it
// globally; a Plan must not be mutated after Activate.
type Plan struct {
	Seed  uint64
	rules map[string]*rule
}

// NewPlan builds a plan from explicit rules (tests compose plans
// programmatically; the DSL path goes through ParsePlan).
func NewPlan(seed uint64, rules ...Rule) (*Plan, error) {
	p := &Plan{Seed: seed, rules: make(map[string]*rule, len(rules))}
	if p.Seed == 0 {
		p.Seed = 1
	}
	for _, r := range rules {
		if !knownPoints[r.Point] {
			return nil, fmt.Errorf("faultinject: unknown point %q (known: %s)", r.Point, strings.Join(Points(), ", "))
		}
		if !r.Error && r.Latency <= 0 {
			return nil, fmt.Errorf("faultinject: rule for %q injects neither error nor latency", r.Point)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return nil, fmt.Errorf("faultinject: rule for %q has probability %v outside [0,1]", r.Point, r.Prob)
		}
		if _, dup := p.rules[r.Point]; dup {
			return nil, fmt.Errorf("faultinject: duplicate rule for point %q", r.Point)
		}
		p.rules[r.Point] = &rule{Rule: r, h0: fnv64(r.Point)}
	}
	return p, nil
}

// ParsePlan parses the -fault-plan DSL (see the package comment).
func ParsePlan(s string) (*Plan, error) {
	var seed uint64 = 1
	var rules []Rule
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		point, directives, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q needs point:directives", clause)
		}
		r := Rule{Point: strings.TrimSpace(point)}
		for _, d := range strings.Split(directives, ",") {
			d = strings.TrimSpace(d)
			key, val, hasVal := strings.Cut(d, "=")
			var err error
			switch {
			case d == "error":
				r.Error = true
			case key == "latency" && hasVal:
				r.Latency, err = time.ParseDuration(val)
			case key == "p" && hasVal:
				r.Prob, err = strconv.ParseFloat(val, 64)
			case key == "after" && hasVal:
				r.After, err = strconv.ParseInt(val, 10, 64)
			case key == "times" && hasVal:
				r.Times, err = strconv.ParseInt(val, 10, 64)
			default:
				return nil, fmt.Errorf("faultinject: unknown directive %q in clause %q", d, clause)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad directive %q: %v", d, err)
			}
		}
		rules = append(rules, r)
	}
	return NewPlan(seed, rules...)
}

// enabled is the package guard every hot path loads exactly once; active
// holds the installed plan. enabled is stored after active so a Check that
// sees the guard up also sees the plan (and a nil re-check is harmless).
var (
	enabled atomic.Bool
	active  atomic.Pointer[Plan]
)

// Enabled reports whether a fault plan is active: one atomic load, the
// entire disabled-path cost of the package.
func Enabled() bool { return enabled.Load() }

// Activate installs p as the process-wide fault plan. Passing nil is
// Deactivate. Tests activating a plan must deactivate it (defer
// Deactivate()) and must not run in parallel with other fault-plan tests in
// the same process.
func Activate(p *Plan) {
	if p == nil {
		Deactivate()
		return
	}
	active.Store(p)
	enabled.Store(true)
}

// Deactivate removes the active plan; Check returns to its single-load path.
func Deactivate() {
	enabled.Store(false)
	active.Store(nil)
}

// Check is the injection gate: nil when no plan is active, no rule arms the
// point, or the rule decided to pass; otherwise it applies the rule —
// sleeping for a latency rule — and returns a *Fault for an error rule
// (nil after a latency-only trip).
func Check(point string) error {
	if !enabled.Load() {
		return nil
	}
	return check(point)
}

// check is the armed slow path, split out so Check stays inlinable.
func check(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	r := p.rules[point]
	if r == nil {
		return nil
	}
	k := r.calls.Add(1)
	if k <= r.After {
		return nil
	}
	if r.Prob > 0 && r.Prob < 1 {
		// Deterministic per (seed, point, ordinal): the same plan replays
		// the same decision sequence at this point in every run.
		u := splitmix64(p.Seed ^ r.h0 ^ uint64(k))
		if float64(u>>11)*(1.0/(1<<53)) >= r.Prob {
			return nil
		}
	}
	if r.Times > 0 {
		if r.trips.Add(1) > r.Times {
			r.trips.Add(-1) // keep the counter at the cap for Stats
			return nil
		}
	} else {
		r.trips.Add(1)
	}
	if r.Latency > 0 {
		time.Sleep(r.Latency)
	}
	if r.Error {
		return &Fault{Point: point}
	}
	return nil
}

// PointStats reports one point's activity under the active plan.
type PointStats struct {
	// Calls counts arrivals at the point since Activate.
	Calls int64
	// Trips counts how many of them the rule acted on.
	Trips int64
}

// Stats snapshots per-point activity of the active plan (nil when no plan
// is active). Chaos tests assert on it to prove faults actually fired.
func Stats() map[string]PointStats {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := make(map[string]PointStats, len(p.rules))
	for name, r := range p.rules {
		out[name] = PointStats{Calls: r.calls.Load(), Trips: r.trips.Load()}
	}
	return out
}

// fnv64 is FNV-1a over s (the point-name half of the decision hash).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the standard 64-bit finalizer-style mixer: cheap, stateless,
// and well distributed — exactly what a per-ordinal coin flip needs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
