package tree

import (
	"fmt"
	"strings"

	"mobirep/internal/core"
)

// Per-key replica placement. The edge protocol decides where copies MAY
// live (a child can only hold a key its parent grants, and the
// allocation gate keeps copies on a contiguous root-to-leaf path); the
// placement table decides where they SHOULD: each station runs one of
// the paper's adaptive policies — the SWk sliding window, or the
// competitive T1m/T2m threshold schemes of section 7.1 — over the
// read/write traffic it actually observes for each key, and sheds
// (DropCopy) any copy the policy votes against. Placement is advisory:
// it only ever removes copies, so it shifts cost, never correctness.
//
// The table is packed as a struct-of-arrays: one map lookup resolves a
// key to a row, and a row is one core.Packed state — a 64-bit window
// word, a counter, and one bit in a hold bitset — in three parallel
// arrays that stay cache-resident at fleet-scale key counts, instead of
// one heap-allocated core.Window or core.T1 per (station, key). Every
// transition is the packed core.Rule step the simulator's kernels run;
// placement_test.go proves it equivalent to the internal/core policies.

// PolicyKind selects the placement algorithm.
type PolicyKind uint8

const (
	// PolicyNone disables placement: the edge protocol alone decides.
	PolicyNone PolicyKind = iota
	// PolicySW holds a copy while reads hold the majority of the last K
	// observed requests (the paper's SWk, core.Window semantics).
	PolicySW
	// PolicyT1 holds a copy after K consecutive reads, until the next
	// write (the paper's T1m, core.T1 semantics; K is m).
	PolicyT1
	// PolicyT2 holds a copy until K consecutive writes, re-holding on
	// the next read (the paper's T2m, core.T2 semantics; K is m).
	PolicyT2
)

// Policy is a placement policy choice: the algorithm and its parameter
// (window size for SW, threshold m for T1/T2).
type Policy struct {
	Kind PolicyKind
	K    int
}

// ParsePolicy parses a placement spec: "none", "SWk", "T1:m" or "T2:m".
func ParsePolicy(s string) (Policy, error) {
	if s == "" || s == "none" {
		return Policy{Kind: PolicyNone}, nil
	}
	var k int
	switch {
	case parseInt(s, "SW%d", &k):
		return checkPolicy(Policy{Kind: PolicySW, K: k})
	case parseInt(s, "T1:%d", &k):
		return checkPolicy(Policy{Kind: PolicyT1, K: k})
	case parseInt(s, "T2:%d", &k):
		return checkPolicy(Policy{Kind: PolicyT2, K: k})
	}
	return Policy{}, fmt.Errorf("tree: bad placement %q (want none, SWk, T1:m or T2:m)", s)
}

func parseInt(s, format string, k *int) bool {
	n, err := fmt.Sscanf(s, format, k)
	return err == nil && n == 1 && fmt.Sprintf(format, *k) == s
}

func checkPolicy(p Policy) (Policy, error) {
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

func (p Policy) String() string {
	switch p.Kind {
	case PolicyNone:
		return "none"
	case PolicySW:
		return fmt.Sprintf("SW%d", p.K)
	case PolicyT1:
		return fmt.Sprintf("T1(%d)", p.K)
	case PolicyT2:
		return fmt.Sprintf("T2(%d)", p.K)
	}
	return "?"
}

// Validate checks the parameter range: SW windows must fit the packed
// 64-bit row (the paper's experiments stop at k=9, so 64 is generous),
// and T* thresholds must be positive.
func (p Policy) Validate() error {
	if p.Kind == PolicyNone {
		return nil
	}
	_, err := p.rule()
	return err
}

// rule is the packed core rule a placement policy runs.
func (p Policy) rule() (core.Rule, error) {
	var kind core.RuleKind
	switch p.Kind {
	case PolicySW:
		kind = core.RuleSW
	case PolicyT1:
		kind = core.RuleT1
	case PolicyT2:
		kind = core.RuleT2
	default:
		return core.Rule{}, fmt.Errorf("tree: unknown placement kind %d", p.Kind)
	}
	r, err := core.NewRule(kind, p.K)
	if err != nil {
		return core.Rule{}, fmt.Errorf("tree: placement %v: %w", p, err)
	}
	return r, nil
}

// Table is the packed per-key placement state for one station. Not
// goroutine-safe; the owning station serializes access.
type Table struct {
	pol  Policy
	rule core.Rule // unset for PolicyNone
	ids  map[string]uint32

	// Parallel per-row arrays holding each row's core.Packed state:
	// bits is the SW window word, cnt the SW write count or the T1/T2
	// run, and hold a bitset over rows of the copy bit — whether the
	// policy currently votes for a copy at this station.
	bits []uint64
	cnt  []uint32
	hold []uint64
}

// NewTable returns an empty table for the given policy. Panics on an
// invalid policy; PolicyNone yields a table that always votes to hold
// (placement disabled — the edge protocol alone decides).
func NewTable(p Policy) *Table {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	t := &Table{pol: p, ids: make(map[string]uint32)}
	if p.Kind != PolicyNone {
		t.rule, _ = p.rule()
	}
	return t
}

// Len returns the number of tracked keys.
func (t *Table) Len() int { return len(t.ids) }

// Policy returns the table's policy.
func (t *Table) Policy() Policy { return t.pol }

// row resolves key to its row, creating it in the rule's initial state.
func (t *Table) row(key string) uint32 {
	r, ok := t.ids[key]
	if ok {
		return r
	}
	r = uint32(len(t.bits))
	// The map retains its key; clone in case the caller's aliases
	// transport memory.
	t.ids[strings.Clone(key)] = r
	if int(r)>>6 >= len(t.hold) {
		t.hold = append(t.hold, 0)
	}
	t.bits = append(t.bits, 0)
	t.cnt = append(t.cnt, 0)
	t.store(r, t.rule.Initial())
	return r
}

func (t *Table) load(r uint32) core.Packed {
	return core.Packed{Bits: t.bits[r], Count: t.cnt[r], Hold: uint32(t.hold[r>>6]>>(r&63)) & 1}
}

func (t *Table) store(r uint32, s core.Packed) {
	t.bits[r] = s.Bits
	t.cnt[r] = s.Count
	t.hold[r>>6] = t.hold[r>>6]&^(1<<(r&63)) | uint64(s.Hold)<<(r&63)
}

// Holds reports whether the policy currently votes for a copy of key at
// this station. Untracked keys answer the policy's initial state without
// allocating a row.
func (t *Table) Holds(key string) bool {
	if t.pol.Kind == PolicyNone {
		return true
	}
	if r, ok := t.ids[key]; ok {
		return t.load(r).Hold != 0
	}
	return t.rule.Initial().Hold != 0
}

// OnRead records a read of key observed at this station and returns the
// policy's (possibly changed) vote.
func (t *Table) OnRead(key string) bool { return t.observe(key, false) }

// OnWrite records a write of key observed at this station and returns
// the policy's (possibly changed) vote.
func (t *Table) OnWrite(key string) bool { return t.observe(key, true) }

func (t *Table) observe(key string, write bool) bool {
	if t.pol.Kind == PolicyNone {
		return true
	}
	r := t.row(key)
	s, _ := t.rule.Step(t.load(r), write)
	t.store(r, s)
	return s.Hold != 0
}
