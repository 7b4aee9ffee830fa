package tree

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// Live-link integration: real in-memory links, real delivery goroutines,
// no chaos. These prove the relay wiring end to end — read-through along
// a chain, downward write propagation, drop cascades, placement
// shedding, and warm handoff — while conformance_test.go hammers the
// same machinery under seeded faults.

func memConnect(child, parent int) (transport.Link, transport.Link, error) {
	a, b := transport.NewMemPair()
	return a, b, nil
}

func buildTest(t *testing.T, topo Topology, mode replica.Mode, placement Policy) (*Tree, *db.Store) {
	t.Helper()
	store := db.NewStore()
	tr, err := Build(topo, store, mode, 1, placement, memConnect)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr, store
}

func attachTestMC(t *testing.T, tr *Tree, station int) *MC {
	t.Helper()
	a, b := transport.NewMemPair()
	mc, err := tr.AttachMC(station, a, b)
	if err != nil {
		t.Fatalf("AttachMC(%d): %v", station, err)
	}
	mc.Client.Timeout = 5 * time.Second
	return mc
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestChainReadThroughAndPropagation(t *testing.T) {
	tr, _ := buildTest(t, Chain(3), replica.Static2(), Policy{Kind: PolicyNone})
	mc := attachTestMC(t, tr, 2)

	if _, err := tr.Stations[0].Server().Write("x", []byte("x#1")); err != nil {
		t.Fatalf("root write: %v", err)
	}
	it, err := mc.Client.Read("x")
	if err != nil {
		t.Fatalf("read through 2-hop chain: %v", err)
	}
	if it.Version != 1 || string(it.Value) != "x#1" {
		t.Fatalf("read = v%d %q, want v1 x#1", it.Version, it.Value)
	}

	// ST2 allocates on every hop of the fetch path: the copy chain is
	// root-contiguous and the MC now holds a copy.
	eventually(t, "copies along the path", func() bool {
		return tr.Stations[1].Client().HasCopy("x") &&
			tr.Stations[2].Client().HasCopy("x") &&
			mc.Client.HasCopy("x")
	})

	// A root write now rides the propagation path down every hop.
	if _, err := tr.Stations[0].Server().Write("x", []byte("x#2")); err != nil {
		t.Fatalf("root write: %v", err)
	}
	eventually(t, "write propagation to the MC", func() bool {
		it, err := mc.Client.Read("x")
		return err == nil && it.Version == 2 && string(it.Value) == "x#2"
	})
}

func TestDropCascade(t *testing.T) {
	tr, _ := buildTest(t, Chain(3), replica.Static2(), Policy{Kind: PolicyNone})
	mc := attachTestMC(t, tr, 2)

	tr.Stations[0].Server().Write("x", []byte("x#1"))
	if _, err := mc.Client.Read("x"); err != nil {
		t.Fatalf("read: %v", err)
	}
	eventually(t, "MC copy", func() bool { return mc.Client.HasCopy("x") })

	// Shedding the top relay's copy must cascade: station 2 and the MC
	// may not hold what station 1 no longer does.
	if !tr.Stations[1].Client().DropCopy("x") {
		t.Fatal("DropCopy: station 1 held no copy")
	}
	eventually(t, "cascade to the MC", func() bool {
		return !tr.Stations[2].Client().HasCopy("x") && !mc.Client.HasCopy("x")
	})

	// The path re-forms on the next read.
	it, err := mc.Client.Read("x")
	if err != nil || it.Version != 1 {
		t.Fatalf("re-read after cascade = v%d, %v", it.Version, err)
	}
	eventually(t, "re-allocation", func() bool { return mc.Client.HasCopy("x") })
}

func TestPlacementShedsAndReholds(t *testing.T) {
	// T1(2) at the relay: it refuses the copy until two consecutive
	// reads, and sheds it again on the next write.
	tr, _ := buildTest(t, Chain(2), replica.Static2(), Policy{Kind: PolicyT1, K: 2})
	mc := attachTestMC(t, tr, 1)
	st := tr.Stations[1]

	tr.Stations[0].Server().Write("x", []byte("x#1"))

	// First read: the fetch allocates, then placement (1 read < 2) sheds.
	if _, err := mc.Client.Read("x"); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	eventually(t, "placement shed after one read", func() bool {
		return !st.Client().HasCopy("x") && !mc.Client.HasCopy("x")
	})

	// Second consecutive read crosses the T1 threshold: the copy stays.
	if _, err := mc.Client.Read("x"); err != nil {
		t.Fatalf("read 2: %v", err)
	}
	eventually(t, "copy held after the threshold", func() bool {
		return st.Client().HasCopy("x") && mc.Client.HasCopy("x")
	})

	// A write ends T1's two-copies phase: the relay sheds and cascades.
	tr.Stations[0].Server().Write("x", []byte("x#2"))
	eventually(t, "placement shed on write", func() bool {
		return !st.Client().HasCopy("x") && !mc.Client.HasCopy("x")
	})

	// Correctness is untouched: the next read sees the new version.
	it, err := mc.Client.Read("x")
	if err != nil || it.Version != 2 {
		t.Fatalf("read after shed = v%d, %v", it.Version, err)
	}
}

func TestHandoffWarm(t *testing.T) {
	tr, _ := buildTest(t, Binary(3), replica.Static2(), Policy{Kind: PolicyNone})
	mc := attachTestMC(t, tr, 1)

	tr.Stations[0].Server().Write("x", []byte("x#1"))
	if it, err := mc.Client.Read("x"); err != nil || it.Version != 1 {
		t.Fatalf("read at station 1 = v%d, %v", it.Version, err)
	}
	eventually(t, "warm copy at station 1", func() bool { return mc.Client.HasCopy("x") })

	// Move to the sibling: state migrates through the root (the common
	// ancestor), revalidated rather than re-shipped.
	a, b := transport.NewMemPair()
	done, err := mc.Handoff(2, a, b)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handoff resync did not complete")
	}
	if !mc.FinishHandoff(a) {
		t.Fatal("handoff fell back to cold")
	}
	if mc.Station() != 2 {
		t.Fatalf("Station() = %d, want 2", mc.Station())
	}

	// The warm copy survived the move and the new path propagates.
	if it, err := mc.Client.Read("x"); err != nil || it.Version != 1 {
		t.Fatalf("read after handoff = v%d, %v", it.Version, err)
	}
	tr.Stations[0].Server().Write("x", []byte("x#2"))
	eventually(t, "propagation via station 2", func() bool {
		it, err := mc.Client.Read("x")
		return err == nil && it.Version == 2
	})
}

// TestHandoffUnderWrites bounces an MC between two stations while the
// root writes concurrently — the handoff race ci runs under -race. Reads
// must stay per-key monotone across every move (floors make a warm
// arrival at a colder station serve upstream rather than step back).
func TestHandoffUnderWrites(t *testing.T) {
	tr, _ := buildTest(t, Binary(3), replica.Static2(), Policy{Kind: PolicyNone})
	mc := attachTestMC(t, tr, 1)

	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		tr.Stations[0].Server().Write(k, []byte(fmt.Sprintf("%s#1", k)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[i%len(keys)]
			tr.Stations[0].Server().Write(k, nil)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	last := map[string]uint64{}
	station := 1
	for move := 0; move < 20; move++ {
		for _, k := range keys {
			it, err := mc.Client.Read(k)
			if err != nil {
				t.Fatalf("move %d: read %s: %v", move, k, err)
			}
			if it.Version < last[k] {
				t.Fatalf("move %d: read %s went back in time: v%d after v%d",
					move, k, it.Version, last[k])
			}
			last[k] = it.Version
		}
		station = 3 - station // 1 <-> 2
		a, b := transport.NewMemPair()
		done, err := mc.Handoff(station, a, b)
		if err != nil {
			t.Fatalf("move %d: Handoff: %v", move, err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("move %d: handoff resync did not complete", move)
		}
		if !mc.FinishHandoff(a) {
			t.Fatalf("move %d: unexpected cold arrival", move)
		}
	}
	close(stop)
	wg.Wait()
}

// clobberLink models a transport that reuses its receive buffer as soon
// as the handler returns, as the transport.Handler contract allows: each
// frame is delivered from a private buffer that is overwritten right
// after the handler is done with it.
type clobberLink struct{ transport.Link }

func (l clobberLink) SetHandler(h transport.Handler) {
	var buf []byte
	l.Link.SetHandler(func(frame []byte) {
		buf = append(buf[:0], frame...)
		h(buf)
		for i := range buf {
			buf[i] = '#'
		}
	})
}

// TestHandoffResyncOwnsFetchedValues: a relay answering a multi-key
// resync fetches each key from its parent and must not keep a fetched
// value that aliases the parent delivery's receive buffer until the last
// key arrives. Otherwise the answer ships another frame's bytes (here,
// the clobber pattern) under the key's version.
func TestHandoffResyncOwnsFetchedValues(t *testing.T) {
	store := db.NewStore()
	tr, err := Build(Binary(3), store, replica.Static2(), 1, Policy{Kind: PolicyNone},
		func(child, parent int) (transport.Link, transport.Link, error) {
			a, b := transport.NewMemPair()
			return clobberLink{a}, b, nil
		})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mc := attachTestMC(t, tr, 1)
	keys := []string{"a", "b"}
	for _, k := range keys {
		if _, err := tr.Stations[0].Server().Write(k, []byte(k+"#1")); err != nil {
			t.Fatalf("root write: %v", err)
		}
		if _, err := mc.Client.Read(k); err != nil {
			t.Fatalf("read %s at station 1: %v", k, err)
		}
	}
	eventually(t, "copies at station 1", func() bool {
		return mc.Client.HasCopy("a") && mc.Client.HasCopy("b")
	})
	// Both keys change while the MC is in motion, so station 2 must
	// re-ship their values rather than revalidate them.
	mc.Client.Suspend()
	for _, k := range keys {
		if _, err := tr.Stations[0].Server().Write(k, []byte(k+"#2")); err != nil {
			t.Fatalf("root write: %v", err)
		}
	}

	a, b := transport.NewMemPair()
	done, err := mc.Handoff(2, a, b)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handoff resync did not complete")
	}
	if !mc.FinishHandoff(a) {
		t.Fatal("handoff fell back to cold")
	}
	for _, k := range keys {
		it, err := mc.Client.Read(k)
		if err != nil || it.Version != 2 || string(it.Value) != k+"#2" {
			t.Fatalf("read %s after handoff = v%d %q, %v; want v2 %q", k, it.Version, it.Value, err, k+"#2")
		}
	}
}
