// Package replica implements the distributed data allocation protocol of
// section 4 as real communicating nodes: a Server on the stationary
// computer (SC) holding the online database, and a Client on the mobile
// computer (MC) holding the local cache.
//
// Exactly one side is "in charge" of a data item's sliding window at any
// time, as the paper observes: while the MC holds a copy, every relevant
// request reaches it (local reads, propagated writes), so the MC maintains
// the window; otherwise every relevant request reaches the SC (remote
// reads, local writes) and the SC maintains it. Ownership moves with the
// copy, and the window bits ride the allocation read-response and the
// deallocation delete-request — the piggybacking the paper describes.
//
// Each side keeps one packed per-key state (core.Packed) and steps it
// with the core.Rule its Mode names — the same branch-free step the
// simulator's kernels and the tree's placement tables run — so the
// protocol, the simulator and the tree cannot disagree on a rule.
// Rule.Window and Rule.LoadWindow turn the packed window into the
// oldest-first schedule the wire carries and back.
//
// Per-message accounting mirrors internal/cost exactly: ReadReq and
// DeleteReq are control messages, ReadResp and WriteProp are data
// messages, and connections are counted per the connection model. The E13
// experiment drives the same request sequence through this protocol and
// through the simulator and checks the ledgers agree message for message.
package replica

import (
	"fmt"
	"sync/atomic"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

// Mode selects the allocation method a node pair runs for a key.
type Mode struct {
	// Kind selects the algorithm family.
	Kind ModeKind
	// K is the window size for ModeSW; it must be odd, in [1, 63].
	K int
}

// ModeKind enumerates protocol allocation methods.
type ModeKind uint8

const (
	// ModeSW runs the sliding-window algorithm SWk (SW1 when K == 1,
	// with the delete-request optimization).
	ModeSW ModeKind = iota
	// ModeStatic1 never allocates a copy at the MC (ST1).
	ModeStatic1
	// ModeStatic2 always keeps a copy at the MC (ST2): the first read
	// allocates and nothing ever deallocates.
	ModeStatic2
)

// SW returns the sliding-window mode with window size k.
func SW(k int) Mode { return Mode{Kind: ModeSW, K: k} }

// Static1 returns the ST1 mode.
func Static1() Mode { return Mode{Kind: ModeStatic1} }

// Static2 returns the ST2 mode.
func Static2() Mode { return Mode{Kind: ModeStatic2} }

// Validate reports whether the mode is well-formed (e.g. an odd window
// size in [1, 63] for ModeSW). NewServer and NewClient call it; CLI parsers
// use it to reject bad modes before wiring anything up.
func (m Mode) Validate() error { return m.validate() }

func (m Mode) validate() error {
	_, err := m.rule()
	return err
}

// rule returns the packed allocation rule the mode runs (core.Rule), or
// an error when the mode is malformed. SW windows stop at 63, the widest
// odd window one packed uint64 holds.
func (m Mode) rule() (core.Rule, error) {
	switch m.Kind {
	case ModeSW:
		if m.K <= 0 || m.K%2 == 0 || m.K > 63 {
			return core.Rule{}, fmt.Errorf("replica: SW window size %d must be odd, positive and at most 63", m.K)
		}
		return core.NewRule(core.RuleSW, m.K)
	case ModeStatic1:
		return core.NewRule(core.RuleST1, 0)
	case ModeStatic2:
		return core.NewRule(core.RuleST2, 0)
	}
	return core.Rule{}, fmt.Errorf("replica: unknown mode kind %d", m.Kind)
}

// String renders the mode like the policy names ("SW5", "ST1", "ST2").
func (m Mode) String() string {
	switch m.Kind {
	case ModeStatic1:
		return "ST1"
	case ModeStatic2:
		return "ST2"
	default:
		return fmt.Sprintf("SW%d", m.K)
	}
}

// ParseMode is the inverse of Mode.String: it accepts "ST1", "ST2" and
// "SWk" for a valid window size k, and rejects anything else.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "ST1":
		return Static1(), nil
	case "ST2":
		return Static2(), nil
	}
	var k int
	if n, err := fmt.Sscanf(name, "SW%d", &k); err == nil && n == 1 && fmt.Sprintf("SW%d", k) == name {
		m := SW(k)
		if err := m.Validate(); err != nil {
			return Mode{}, err
		}
		return m, nil
	}
	return Mode{}, fmt.Errorf("unknown mode %q (want ST1, ST2 or SWk)", name)
}

// Meter counts protocol traffic on one side. Combined over both sides it
// reproduces the paper's cost models; see Ledger. The counters are
// lock-free atomics, and every add is mirrored into the per-side global
// series of the obs registry (metrics.go), so the per-instance snapshot
// the experiments diff and the process-wide /metrics view are two reads
// of the same write path and cannot drift. Read it through Snapshot.
type Meter struct {
	data    atomic.Int64 // data messages sent (ReadResp, WriteProp)
	control atomic.Int64 // control messages sent (ReadReq, DeleteReq)
	// conns counts connection-model connections initiated by this side:
	// a remote read (counted at the MC) or a write that reached out to
	// the MC (counted at the SC). The MC's deallocation delete-request
	// rides the write's connection and adds none.
	conns  atomic.Int64
	bytes  atomic.Int64 // frame payload bytes sent
	mirror *meterMirror // per-side global series; nil mirrors nowhere
}

// newMeter returns a meter that mirrors into the given side's global
// registry series.
func newMeter(mirror *meterMirror) *Meter { return &Meter{mirror: mirror} }

func (m *Meter) addData(bytes int) {
	m.data.Add(1)
	m.bytes.Add(int64(bytes))
	if m.mirror != nil {
		m.mirror.data.Inc()
		m.mirror.bytes.Add(uint64(bytes))
	}
}

func (m *Meter) addControl(bytes int) {
	m.control.Add(1)
	m.bytes.Add(int64(bytes))
	if m.mirror != nil {
		m.mirror.control.Inc()
		m.mirror.bytes.Add(uint64(bytes))
	}
}

func (m *Meter) addConnection() {
	m.conns.Add(1)
	if m.mirror != nil {
		m.mirror.conns.Inc()
	}
}

// Snapshot returns a copy of the counters.
func (m *Meter) Snapshot() MeterSnapshot {
	return MeterSnapshot{
		DataMsgs:    int(m.data.Load()),
		ControlMsgs: int(m.control.Load()),
		Connections: int(m.conns.Load()),
		Bytes:       int(m.bytes.Load()),
	}
}

// MeterSnapshot is an immutable copy of a Meter.
type MeterSnapshot struct {
	DataMsgs    int
	ControlMsgs int
	Connections int
	Bytes       int
}

// Add returns the element-wise sum, used to combine the MC and SC sides.
func (s MeterSnapshot) Add(o MeterSnapshot) MeterSnapshot {
	return MeterSnapshot{
		DataMsgs:    s.DataMsgs + o.DataMsgs,
		ControlMsgs: s.ControlMsgs + o.ControlMsgs,
		Connections: s.Connections + o.Connections,
		Bytes:       s.Bytes + o.Bytes,
	}
}

// MessageCost prices the snapshot under the message model with the given
// omega.
func (s MeterSnapshot) MessageCost(omega float64) float64 {
	return float64(s.DataMsgs) + omega*float64(s.ControlMsgs)
}

// ConnectionCost prices the snapshot under the connection model.
func (s MeterSnapshot) ConnectionCost() float64 {
	return float64(s.Connections)
}

// itemState is one side's protocol state for one (client, key): the
// packed allocation state under the side's rule and the copy bit. Only
// the side in charge (see the package doc) steps a live state.
//
// The copy bit stays apart from p.Hold, the rule's own verdict: the
// allocation gate can refuse a copy the rule grants, ST2's rule holds
// from the start but nothing is placed before the first read, and lost
// frames leave the two sides apart until the protocol repairs it. The
// rule's Has output decides; has records what the wire granted.
type itemState struct {
	p   core.Packed
	has bool
	// servedAt is, on the SC, the store version the current allocation
	// was served at. A DeleteReq the MC re-asserts on a WriteProp carries
	// that write's version; one not above servedAt answers an older
	// allocation and must not revoke this one.
	servedAt uint64
}

func newItemState(r *core.Rule) *itemState { return &itemState{p: r.Initial()} }

// localRead slides the MC's state by a read served from its copy.
func (st *itemState) localRead(r *core.Rule) { st.p, _ = r.Step(st.p, false) }

// remoteRead slides the SC's state by a remote read and reports whether
// the rule places a copy (Session.serveRead consults the allocation gate
// and allocates). A ReadReq while the MC holds a copy is a stale race:
// it is served without touching allocation.
func (st *itemState) remoteRead(r *core.Rule) bool {
	if st.has {
		return false
	}
	var idx core.StepIndex
	st.p, idx = r.Step(st.p, false)
	return idx&core.IndexHas != 0
}

// resubscribe re-asserts a copy the MC declared on a warm resync, now at
// version v. The rule's Hold follows the copy so SW1's suppression sees
// a held copy on the next write.
func (st *itemState) resubscribe(v uint64) {
	st.has, st.servedAt, st.p.Hold = true, v, 1
}

// scWrite runs the SC side of a write and reports what to send: nothing
// while the SC is in charge (the write only slides its state), the
// WriteProp while the MC holds a copy, or under SW1 the bare DeleteReq
// that revokes the copy without shipping data (IndexSuppressed). Only
// the suppressed step keeps the stepped state: otherwise the MC is in
// charge and the SC's state waits for the window to come back.
func (st *itemState) scWrite(r *core.Rule) sendClass {
	p, idx := r.Step(st.p, true)
	switch {
	case !st.has:
		st.p = p
	case idx&core.IndexSuppressed != 0:
		st.p, st.has = p, false
		return control
	default:
		return data
	}
	return none
}

// adopt installs the window that rode an allocation at the MC, which now
// holds the copy and is in charge. A window of the wrong size means a
// buggy server: assume all reads, which the next requests wash out.
func (st *itemState) adopt(r *core.Rule, window sched.Schedule) {
	p, err := r.LoadWindow(st.p, window)
	if err != nil {
		p = core.Packed{}
	}
	p.Hold = 1
	st.p, st.has = p, true
}

// release ends the MC's charge on a DeleteReq: the SC takes the copy bit
// down and, when the window is well-formed, adopts it. A re-asserted
// DeleteReq (version != 0) not above servedAt answers an older
// allocation and is ignored, as is one for a copy already gone.
func (st *itemState) release(r *core.Rule, window sched.Schedule, version uint64) {
	if !st.has || (version != 0 && version <= st.servedAt) {
		return
	}
	st.has = false
	if p, err := r.LoadWindow(st.p, window); err == nil {
		st.p = p
	}
}

// revoke drops the copy with the window reset to the rule's initial
// state, as after an SC-initiated DeleteReq.
func (st *itemState) revoke(r *core.Rule) { st.p, st.has = r.Initial(), false }

// writes slides the MC's state by n writes to its copy — one propagated
// write, or the writes a resync or a late read answer reveals — capped
// at 64, the widest packed window, beyond which older writes would have
// slid out anyway. It reports whether the copy stays; when it does not,
// the copy bit is down and the caller hands the window back.
func (st *itemState) writes(r *core.Rule, n uint64) bool {
	keep := true
	for i := uint64(0); i < min(n, 64); i++ {
		var idx core.StepIndex
		st.p, idx = r.Step(st.p, true)
		keep = idx&core.IndexHas != 0
	}
	st.has = keep
	return keep
}
