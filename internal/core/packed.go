package core

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"mobirep/internal/sched"
)

// Packed policy state. The Policy implementations above are the readable
// statement of the paper's rules; the simulator's fused kernels and the
// tree's per-key placement tables need the same rules as a small value
// that fits in registers and a step that does not branch on the request.
// A Rule holds the parameters of one rule, a Packed holds one key's state
// under it, and the Rule's step maps (state, request) to (state, step
// index) with arithmetic only, so a replay loop never mispredicts on the
// coin flip that drew the request.
//
// The per-kind state lives in the same three fields for every rule:
//
//   - SWk: Bits is the window as a shift register (bit set = write,
//     newest in bit 0, k low bits in use) and Count its write count.
//   - T1m: Count is the run of consecutive reads seen without a copy.
//   - T2m: Count is the run of consecutive writes seen with a copy.
//   - ST1, ST2: Hold is fixed; nothing else is used.
//
// Hold is the copy bit, for every rule. The equivalence tests in
// packed_test.go replay every rule against its Policy.

// RuleKind selects the allocation rule a Rule follows.
type RuleKind uint8

const (
	// RuleSW is the sliding-window method SWk, including SW1's
	// delete-request optimization.
	RuleSW RuleKind = iota
	// RuleT1 is T1m of section 7.1.
	RuleT1
	// RuleT2 is T2m of section 7.1.
	RuleT2
	// RuleST1 is the static one-copy method.
	RuleST1
	// RuleST2 is the static two-copies method.
	RuleST2

	// NumRuleKinds is the number of rule kinds, for per-kind arrays.
	NumRuleKinds = int(RuleST2) + 1
)

// maxPackedWindow is the largest SW window a Rule packs: the window is
// one uint64.
const maxPackedWindow = 64

// Rule is one allocation rule with its parameter, ready to step packed
// states. The zero Rule is not valid; use NewRule or RuleOf.
type Rule struct {
	kind RuleKind
	k    uint32 // SW window size, T1/T2 threshold m
	top  uint32 // SW: k-1, the bit position of the oldest request
	mask uint64 // SW: the k low bits
	sup  uint32 // SW: 1 when k == 1 (SW1 suppresses write data)
}

// NewRule returns the rule of the given kind. k is the SW window size
// (1..64; even sizes are allowed, with ties counting as a
// write majority) or the T1/T2 threshold m (1..math.MaxInt32); it is
// ignored for the static rules.
func NewRule(kind RuleKind, k int) (Rule, error) {
	r := Rule{kind: kind}
	switch kind {
	case RuleSW:
		if k < 1 || k > maxPackedWindow {
			return Rule{}, fmt.Errorf("core: packed SW window %d outside [1, %d]", k, maxPackedWindow)
		}
		r.k = uint32(k)
		r.top = uint32(k - 1)
		r.mask = ^uint64(0) >> (64 - uint(k))
		if k == 1 {
			r.sup = 1
		}
	case RuleT1, RuleT2:
		if k < 1 || k > math.MaxInt32 {
			return Rule{}, fmt.Errorf("core: T* threshold %d outside [1, %d]", k, math.MaxInt32)
		}
		r.k = uint32(k)
	case RuleST1, RuleST2:
	default:
		return Rule{}, fmt.Errorf("core: unknown rule kind %d", kind)
	}
	return r, nil
}

// RuleOf returns the packed rule equivalent to p in its reset state, or
// ok=false when there is none: p is not one of SW (with the default
// all-writes initial window and k <= 64), T1, T2, ST1 or
// ST2.
func RuleOf(p Policy) (Rule, bool) {
	var r Rule
	var err error
	switch q := p.(type) {
	case *ST1:
		r, err = NewRule(RuleST1, 0)
	case *ST2:
		r, err = NewRule(RuleST2, 0)
	case *SW:
		if q.initialOp != sched.Write {
			return Rule{}, false
		}
		r, err = NewRule(RuleSW, q.k)
	case *T1:
		r, err = NewRule(RuleT1, q.m)
	case *T2:
		r, err = NewRule(RuleT2, q.m)
	default:
		return Rule{}, false
	}
	return r, err == nil
}

// Kind returns the rule's kind.
func (r *Rule) Kind() RuleKind { return r.kind }

// Initial returns the state a key starts in, matching the Policy's
// reset state: SW's window all writes (no copy), T1 and ST1 without a
// copy, T2 and ST2 with one.
func (r *Rule) Initial() Packed {
	switch r.kind {
	case RuleSW:
		return Packed{Bits: r.mask, Count: r.k}
	case RuleT2, RuleST2:
		return Packed{Hold: 1}
	}
	return Packed{}
}

// Packed is one key's state under a Rule. Hold is 1 while the MC holds
// a copy and 0 otherwise.
type Packed struct {
	Bits  uint64
	Count uint32
	Hold  uint32
}

// Window returns s's SW window oldest-first, the form in which a window
// handoff rides the wire (the same schedule Window.Bits gives); rules
// without a window return nil.
func (r *Rule) Window(s Packed) sched.Schedule {
	if r.kind != RuleSW {
		return nil
	}
	out := make(sched.Schedule, r.k)
	for i := range out {
		out[i] = sched.Op(s.Bits >> (r.top - uint32(i)) & 1) // Read 0, Write 1
	}
	return out
}

// LoadWindow returns s with its SW window replaced by bits, given
// oldest-first, and Hold set to the rule's verdict on it: the receiving
// side of a window handoff (Window.LoadBits). bits must have exactly k
// entries, or none under a rule without a window; otherwise s comes back
// unchanged with an error.
func (r *Rule) LoadWindow(s Packed, bits sched.Schedule) (Packed, error) {
	want := 0
	if r.kind == RuleSW {
		want = int(r.k)
	}
	if len(bits) != want {
		return s, fmt.Errorf("core: window handoff carried %d bits, want %d", len(bits), want)
	}
	if want == 0 {
		return s, nil
	}
	var b uint64
	for _, op := range bits {
		b = b<<1 | uint64(Bit(op == sched.Write))
	}
	s.Bits = b
	s.Count = uint32(mathbits.OnesCount64(b))
	s.Hold = (2*s.Count - r.k) >> 31
	return s, nil
}

// Step applies one request to s under r. It is the entry point for
// callers that hold rules of several kinds; a loop over one rule calls
// the per-kind step directly, with w = 1 for a write and 0 for a read,
// so that it inlines.
func (r *Rule) Step(s Packed, write bool) (Packed, StepIndex) {
	w := Bit(write)
	switch r.kind {
	case RuleSW:
		return r.StepSW(s, w)
	case RuleT1:
		return r.StepT1(s, w)
	case RuleT2:
		return r.StepT2(s, w)
	}
	return r.StepStatic(s, w)
}

// StepSW slides the window and holds a copy exactly when reads are the
// strict majority of the last k requests (SW.Apply). r must be an SW
// rule.
func (r *Rule) StepSW(s Packed, w uint32) (Packed, StepIndex) {
	had := s.Hold
	out := uint32(s.Bits >> (r.top & 63)) // & 63: no shift-overflow guard
	s.Bits = (s.Bits<<1 | uint64(w)) & r.mask
	s.Count += w - out
	s.Hold = (2*s.Count - r.k) >> 31 // 2*writes < k, as a sign bit
	return s, StepIndex(w | had<<1 | s.Hold<<2 | (w&had&r.sup)<<3)
}

// StepT1 counts consecutive reads without a copy and allocates on the
// m-th; any write ends the two-copies phase with a bare delete-request
// (T1.Apply). r must be a T1 rule.
func (r *Rule) StepT1(s Packed, w uint32) (Packed, StepIndex) {
	had := s.Hold
	run := (s.Count + 1) &^ -w // a read extends the run, a write ends it
	reach := eq(run, r.k)
	s.Hold = had&^w | reach&^had
	s.Count = run &^ -(had | reach)
	return s, StepIndex(w | had<<1 | s.Hold<<2 | (w&had)<<3)
}

// StepT2 counts consecutive writes with a copy and deallocates on the
// m-th; the next read re-allocates (T2.Apply). r must be a T2 rule.
func (r *Rule) StepT2(s Packed, w uint32) (Packed, StepIndex) {
	had := s.Hold
	run := (s.Count + 1) & -w // a write extends the run, a read ends it
	reach := eq(run, r.k)
	s.Hold = had&^reach | ((had | w) ^ 1)
	s.Count = run &^ -((had ^ 1) | reach)
	return s, StepIndex(w | had<<1 | s.Hold<<2)
}

// StepStatic is the step of ST1 and ST2: the copy bit never moves. r
// must be a static rule.
func (r *Rule) StepStatic(s Packed, w uint32) (Packed, StepIndex) {
	return s, StepIndex(w | s.Hold*uint32(IndexHad|IndexHas))
}

// Bit converts b to 0 or 1 without a branch (the compiler emits SETcc),
// the form of the request the per-kind steps take.
func Bit(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}

// eq is 1 when a == b and 0 otherwise, for a, b < 2^31.
func eq(a, b uint32) uint32 { return ((a ^ b) - 1) >> 31 }

// StepIndex packs what one step did into four bits — write, had a copy,
// has a copy, data suppressed — so a replay can price and count steps by
// table lookup instead of inspecting a Step.
type StepIndex uint8

// The StepIndex bits.
const (
	IndexWrite StepIndex = 1 << iota
	IndexHad
	IndexHas
	IndexSuppressed

	// NumStepIndices bounds StepIndex, for per-index tables.
	NumStepIndices = 16
)

// Step returns the Step the index encodes.
func (i StepIndex) Step() Step {
	op := sched.Read
	if i&IndexWrite != 0 {
		op = sched.Write
	}
	return step(op, i&IndexHad != 0, i&IndexHas != 0, i&IndexSuppressed != 0)
}
