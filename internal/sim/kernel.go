package sim

// Fused replay kernels. The generic Replay/ReplayStream loop pays two
// interface dispatches per request (Policy.Apply and Model.StepCost) plus
// Step-struct traffic between them. For the seven policies of the paper's
// sweeps — SWk (k <= 64), T1m, T2m, ST1 and ST2 — and the two paper cost
// models, the kernels below run the packed core.Rule step instead: one
// monomorphic loop per rule that draws the request, steps the packed
// state without branching on it, prices the step from a 16-entry table
// and counts it in a per-index histogram. The ledger and the transition
// counters are derived from the histogram once, at the end.
//
// Correctness is pinned by TestKernelEquivalence: on identical schedules a
// kernel's Result must equal the generic Replay's field for field,
// including the float accumulation order of Ledger.Total (the kernels add
// the exact same float64 step costs in the exact same order, so totals are
// bit-identical, not merely close).

import (
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/stats"
)

// Kernel is a fused replay engine bound to one policy and one cost model.
// It holds only tables fixed at construction, so one Kernel may serve
// concurrent replays; the estimators share one across their trials.
type Kernel struct {
	rule  core.Rule
	model cost.Model
	// price[i] is the model's cost of a step with index i.
	price [core.NumStepIndices]float64
}

// tally accumulates the priced steps of one replay.
type tally struct {
	hist  [core.NumStepIndices]int
	total float64
}

// NewKernel returns a fused kernel replaying policy p under m, or ok=false
// when no fused path exists: p has no packed rule (see core.RuleOf), or
// the model is not one of the paper's two. Callers keep the generic path
// in that case. Replays start from p's reset state, whatever state p is
// in now.
func NewKernel(p core.Policy, m cost.Model) (*Kernel, bool) {
	switch m.(type) {
	case cost.Connection, cost.Message:
	default:
		// A custom model may price a step by more than its index.
		return nil, false
	}
	rule, ok := core.RuleOf(p)
	if !ok {
		return nil, false
	}
	kn := &Kernel{rule: rule, model: m}
	for i := range kn.price {
		kn.price[i] = m.StepCost(core.StepIndex(i).Step())
	}
	return kn, true
}

// ReplayBernoulli replays n i.i.d. Bernoulli(theta) requests drawn from
// rng, pricing all but the first warmup. It consumes rng exactly like
// workload.Bernoulli, so it reproduces Replay on that schedule bit for
// bit.
func (kn *Kernel) ReplayBernoulli(rng *stats.RNG, theta float64, n, warmup int) Result {
	start := time.Now()
	warmup = min(max(warmup, 0), n)
	var warm, t tally
	s := kn.run(rng, kn.rule.Initial(), theta, warmup, &warm)
	kn.run(rng, s, theta, n-warmup, &t)
	res := kn.result(&t)
	recordReplay(kn.rule.Kind(), res.Ops, time.Since(start))
	return res
}

// ReplayDrifting replays the section 3 period model — theta redrawn
// uniformly per period — consuming rng exactly like workload.Drifting.
func (kn *Kernel) ReplayDrifting(rng *stats.RNG, periods, opsPerPeriod int) Result {
	start := time.Now()
	var t tally
	if opsPerPeriod > 0 {
		s := kn.rule.Initial()
		for p := 0; p < periods; p++ {
			s = kn.run(rng, s, rng.Float64(), opsPerPeriod, &t)
		}
	}
	res := kn.result(&t)
	recordReplay(kn.rule.Kind(), res.Ops, time.Since(start))
	return res
}

// run steps s through n requests of write share theta drawn from rng,
// tallying each, and returns the final state.
func (kn *Kernel) run(rng *stats.RNG, s core.Packed, theta float64, n int, t *tally) core.Packed {
	switch kn.rule.Kind() {
	case core.RuleSW:
		return kn.runSW(rng, s, theta, n, t)
	case core.RuleT1:
		return kn.runT1(rng, s, theta, n, t)
	case core.RuleT2:
		return kn.runT2(rng, s, theta, n, t)
	}
	return kn.runStatic(rng, s, theta, n, t)
}

// The four loops below differ only in the step they call, so that each
// step inlines. Each works on local copies of the RNG and the running
// total, stored back once at the end, and draws every request as
// r.Float64() < theta, exactly as workload.Bernoulli.

func (kn *Kernel) runSW(rng *stats.RNG, s core.Packed, theta float64, n int, t *tally) core.Packed {
	r, rule, total := *rng, &kn.rule, t.total
	var idx core.StepIndex
	for i := 0; i < n; i++ {
		s, idx = rule.StepSW(s, core.Bit(r.Float64() < theta))
		t.hist[idx]++
		total += kn.price[idx]
	}
	*rng, t.total = r, total
	return s
}

func (kn *Kernel) runT1(rng *stats.RNG, s core.Packed, theta float64, n int, t *tally) core.Packed {
	r, rule, total := *rng, &kn.rule, t.total
	var idx core.StepIndex
	for i := 0; i < n; i++ {
		s, idx = rule.StepT1(s, core.Bit(r.Float64() < theta))
		t.hist[idx]++
		total += kn.price[idx]
	}
	*rng, t.total = r, total
	return s
}

func (kn *Kernel) runT2(rng *stats.RNG, s core.Packed, theta float64, n int, t *tally) core.Packed {
	r, rule, total := *rng, &kn.rule, t.total
	var idx core.StepIndex
	for i := 0; i < n; i++ {
		s, idx = rule.StepT2(s, core.Bit(r.Float64() < theta))
		t.hist[idx]++
		total += kn.price[idx]
	}
	*rng, t.total = r, total
	return s
}

func (kn *Kernel) runStatic(rng *stats.RNG, s core.Packed, theta float64, n int, t *tally) core.Packed {
	r, rule, total := *rng, &kn.rule, t.total
	var idx core.StepIndex
	for i := 0; i < n; i++ {
		s, idx = rule.StepStatic(s, core.Bit(r.Float64() < theta))
		t.hist[idx]++
		total += kn.price[idx]
	}
	*rng, t.total = r, total
	return s
}

// result derives the Result of a replay from its tally: every field but
// the total is a per-index count times what one step of that index
// contributes, as cost.Ledger.Observe and Replay account it.
func (kn *Kernel) result(t *tally) Result {
	res := Result{Cost: t.total}
	res.Ledger.Total = t.total
	for i, n := range t.hist {
		if n == 0 {
			continue
		}
		st := core.StepIndex(i).Step()
		var one cost.Ledger
		one.Observe(kn.model, st)
		res.Ops += n
		res.Ledger.Steps += n
		res.Ledger.DataMessages += n * one.DataMessages
		res.Ledger.ControlMessages += n * one.ControlMessages
		res.Ledger.Connections += n * one.Connections
		if st.HadCopy {
			res.CopySteps += n
		}
		if st.Allocated() {
			res.Allocations += n
		}
		if st.Deallocated() {
			res.Deallocations += n
		}
	}
	return res
}
