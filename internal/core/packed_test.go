package core

import (
	"testing"

	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// The packed step must be step-for-step equivalent to the Policy it
// packs: same Step (op, had, has, suppressed) on every request of a
// random schedule. Runs of several lengths at a few write shares drive
// the T* counters to their thresholds and the SW window through
// wraparound.
func TestPackedStepMatchesPolicy(t *testing.T) {
	policies := []Policy{
		NewST1(), NewST2(),
		NewSW(1), NewSW(3), NewSW(9), NewSW(63),
		NewT1(1), NewT1(2), NewT1(3), NewT1(7),
		NewT2(1), NewT2(2), NewT2(3), NewT2(7),
	}
	for _, p := range policies {
		r, ok := RuleOf(p)
		if !ok {
			t.Fatalf("%s: no packed rule", p.Name())
		}
		for _, theta := range []float64{0.1, 0.5, 0.9} {
			p.Reset()
			rng := stats.NewRNG(uint64(len(p.Name())*1000) + uint64(theta*10))
			s := r.Initial()
			if s.Hold != Bit(p.HasCopy()) {
				t.Fatalf("%s: initial hold %d, policy has-copy %v", p.Name(), s.Hold, p.HasCopy())
			}
			for i := 0; i < 5000; i++ {
				write := rng.Bernoulli(theta)
				op := sched.Read
				if write {
					op = sched.Write
				}
				want := p.Apply(op)
				var idx StepIndex
				s, idx = r.Step(s, write)
				if got := idx.Step(); got != want {
					t.Fatalf("%s theta=%v request %d: packed %+v, policy %+v", p.Name(), theta, i, got, want)
				}
			}
		}
	}
}

// TestPackedSWWindowEdges pins the sizes core.SW cannot build — even
// windows, and 64, the full uint64 — against core.Window's read
// majority.
func TestPackedSWWindowEdges(t *testing.T) {
	for _, k := range []int{2, 62, 64} {
		r, err := NewRule(RuleSW, k)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWindow(k, sched.Write)
		s := r.Initial()
		rng := stats.NewRNG(uint64(k))
		for i := 0; i < 20000; i++ {
			// Long runs walk the write count across the whole window.
			write := rng.Bernoulli(0.5 + 0.45*float64((i/500)%3-1))
			had := w.ReadMajority()
			if write {
				w.Push(sched.Write)
			} else {
				w.Push(sched.Read)
			}
			var idx StepIndex
			s, idx = r.Step(s, write)
			st := idx.Step()
			if st.HadCopy != had || st.HasCopy != w.ReadMajority() || int(s.Count) != w.Writes() {
				t.Fatalf("SW%d request %d: packed %+v count %d, window %s", k, i, st, s.Count, w)
			}
		}
	}
}

func TestStepIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumStepIndices; i++ {
		st := StepIndex(i).Step()
		if (st.Op == sched.Write) != (i&1 != 0) || st.HadCopy != (i&2 != 0) ||
			st.HasCopy != (i&4 != 0) || st.DataSuppressed != (i&8 != 0) {
			t.Fatalf("index %04b decodes to %+v", i, st)
		}
	}
}

func TestRuleOf(t *testing.T) {
	for _, p := range []Policy{NewSW(65), NewSWInitial(3, sched.Read), NewEWMA(0.5)} {
		if _, ok := RuleOf(p); ok {
			t.Errorf("%s: RuleOf packed a policy it cannot", p.Name())
		}
	}
	r, ok := RuleOf(NewT2(5))
	if !ok || r.Kind() != RuleT2 || r.k != 5 {
		t.Fatalf("RuleOf(T2(5)) = %v kind %d k %d", ok, r.Kind(), r.k)
	}
}

func TestNewRuleValidation(t *testing.T) {
	bad := []struct {
		kind RuleKind
		k    int
	}{
		{RuleSW, 0}, {RuleSW, 65}, {RuleT1, 0}, {RuleT2, -1}, {RuleT1, 1 << 31}, {RuleKind(9), 1},
	}
	for _, b := range bad {
		if _, err := NewRule(b.kind, b.k); err == nil {
			t.Errorf("NewRule(%d, %d) accepted", b.kind, b.k)
		}
	}
	for _, k := range []RuleKind{RuleST1, RuleST2} {
		if _, err := NewRule(k, 0); err != nil {
			t.Errorf("NewRule(%d, 0): %v", k, err)
		}
	}
}

// TestPackedWindowMatchesWindow pins the handoff helpers to core.Window:
// for every odd k a random stream drives a Window and a packed SW state
// side by side, Rule.Window must render the state as Window.Bits does,
// and LoadWindow must read that schedule back to the same state, with
// Hold the read majority Window.LoadBits gives. A load of the wrong
// length fails and leaves the state alone, as LoadBits does.
func TestPackedWindowMatchesWindow(t *testing.T) {
	rng := stats.NewRNG(63)
	for k := 1; k <= 63; k += 2 {
		r, err := NewRule(RuleSW, k)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWindow(k, sched.Write)
		s := r.Initial()
		for i := 0; i < 4*k; i++ {
			write := rng.Bernoulli(0.4)
			op := sched.Read
			if write {
				op = sched.Write
			}
			w.Push(op)
			s, _ = r.Step(s, write)
			bits := r.Window(s)
			if bits.String() != w.Bits().String() {
				t.Fatalf("SW%d request %d: packed window %s, Window %s", k, i, bits, w)
			}
			back, err := r.LoadWindow(r.Initial(), bits)
			if err != nil || back != s {
				t.Fatalf("SW%d request %d: LoadWindow(%s) = %+v, %v; want %+v", k, i, bits, back, err, s)
			}
			loaded := NewWindow(k, sched.Read)
			if err := loaded.LoadBits(bits); err != nil || (back.Hold == 1) != loaded.ReadMajority() {
				t.Fatalf("SW%d request %d: hold %d, LoadBits read majority %v (%v)", k, i, back.Hold, loaded.ReadMajority(), err)
			}
		}
		for _, n := range []int{k - 1, k + 1} {
			bad := make(sched.Schedule, n)
			if got, err := r.LoadWindow(s, bad); err == nil || got != s {
				t.Fatalf("SW%d: LoadWindow of %d bits = %+v, %v; want the state unchanged and an error", k, n, got, err)
			}
			if err := w.LoadBits(bad); err == nil {
				t.Fatalf("SW%d: Window.LoadBits accepted %d bits", k, n)
			}
		}
	}
	// Rules without a window carry none and accept none.
	for _, kind := range []RuleKind{RuleST1, RuleST2} {
		r, _ := NewRule(kind, 0)
		s := r.Initial()
		if bits := r.Window(s); bits != nil {
			t.Fatalf("rule %d: window %s, want nil", kind, bits)
		}
		if got, err := r.LoadWindow(s, nil); err != nil || got != s {
			t.Fatalf("rule %d: LoadWindow(nil) = %+v, %v", kind, got, err)
		}
		if _, err := r.LoadWindow(s, sched.Schedule{sched.Read}); err == nil {
			t.Fatalf("rule %d: LoadWindow accepted a window", kind)
		}
	}
}
