package core

import (
	"fmt"

	"mobirep/internal/sched"
)

// Window is the sliding window of the last k relevant requests that the
// SWk family inspects. The paper stores it as k bits (0 for a read, 1 for
// a write); this implementation keeps the same representation in a ring
// buffer plus a running write count so that each slide is O(1).
//
// Window is the readable reference: SW, EvenSW and the adaptive policies
// run on it. The protocol's window handoff (section 4) runs on the packed
// state instead, through Rule.Window and Rule.LoadWindow, whose tests pin
// them to Bits and LoadBits here.
type Window struct {
	bits   []bool // true = write; index head is the oldest entry
	head   int
	writes int
}

// NewWindow returns a window of size k pre-filled with fill. The paper
// leaves the initial window unspecified because it only affects a finite
// prefix; filling with writes starts the system in the one-copy scheme,
// which matches a mobile computer that has just connected and holds no
// copy. k must be positive.
func NewWindow(k int, fill sched.Op) *Window {
	if k <= 0 {
		panic(fmt.Sprintf("core: window size %d must be positive", k))
	}
	w := &Window{bits: make([]bool, k)}
	if fill == sched.Write {
		for i := range w.bits {
			w.bits[i] = true
		}
		w.writes = k
	}
	return w
}

// Size returns k.
func (w *Window) Size() int { return len(w.bits) }

// Writes returns the number of writes currently in the window.
func (w *Window) Writes() int { return w.writes }

// Reads returns the number of reads currently in the window.
func (w *Window) Reads() int { return len(w.bits) - w.writes }

// ReadMajority reports whether reads strictly outnumber writes. With the
// paper's odd k there are no ties, so !ReadMajority means write majority.
func (w *Window) ReadMajority() bool { return w.Reads() > w.writes }

// Push drops the oldest request and records op as the newest.
func (w *Window) Push(op sched.Op) {
	isWrite := op == sched.Write
	if w.bits[w.head] {
		w.writes--
	}
	w.bits[w.head] = isWrite
	if isWrite {
		w.writes++
	}
	w.head++
	if w.head == len(w.bits) {
		w.head = 0
	}
}

// Bits returns the window contents oldest-first as a schedule, the form in
// which the window is piggybacked on handoff messages.
func (w *Window) Bits() sched.Schedule {
	out := make(sched.Schedule, len(w.bits))
	// Unroll the ring in two straight passes — head..end then 0..head —
	// so the protocol handoff path pays no modulo per element.
	n := copyBits(out, w.bits[w.head:])
	copyBits(out[n:], w.bits[:w.head])
	return out
}

// copyBits translates a contiguous run of ring bits into schedule ops and
// returns the number of elements written.
func copyBits(dst sched.Schedule, src []bool) int {
	for i, isWrite := range src {
		if isWrite {
			dst[i] = sched.Write
		} else {
			dst[i] = sched.Read
		}
	}
	return len(src)
}

// LoadBits replaces the window contents with the given oldest-first
// sequence, which must have exactly Size entries. It is the receiving side
// of a window handoff.
func (w *Window) LoadBits(bits sched.Schedule) error {
	if len(bits) != len(w.bits) {
		return fmt.Errorf("core: window handoff carried %d bits, want %d", len(bits), len(w.bits))
	}
	w.head = 0
	w.writes = 0
	for i, op := range bits {
		isWrite := op == sched.Write
		w.bits[i] = isWrite
		if isWrite {
			w.writes++
		}
	}
	return nil
}

// Fill resets every slot to op.
func (w *Window) Fill(op sched.Op) {
	isWrite := op == sched.Write
	for i := range w.bits {
		w.bits[i] = isWrite
	}
	w.head = 0
	if isWrite {
		w.writes = len(w.bits)
	} else {
		w.writes = 0
	}
}

// String renders the window oldest-first, e.g. "rrwrw".
func (w *Window) String() string { return w.Bits().String() }
