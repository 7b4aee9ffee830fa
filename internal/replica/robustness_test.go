package replica

import (
	"sync"
	"testing"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// rawPair exposes both link ends so tests can inject raw frames.
func rawPair(t *testing.T, mode Mode) (*Client, *Server, transport.Link, transport.Link) {
	t.Helper()
	a, b := transport.NewMemPair()
	srv, err := NewServer(db.NewStore(), mode)
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(a)
	cli, err := NewClient(b, mode)
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv, a, b
}

// TestServerIgnoresGarbageFrames: junk from a client must not crash the
// server or corrupt its state.
func TestServerIgnoresGarbageFrames(t *testing.T) {
	cli, srv, _, clientLink := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	for _, frame := range [][]byte{
		nil, {}, {0xff}, {0, 0, 0}, {42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	} {
		if err := clientLink.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	// The protocol still works afterwards.
	it, err := cli.Read("x")
	if err != nil || string(it.Value) != "v" {
		t.Fatalf("read after garbage: %v %q", err, it.Value)
	}
}

// TestClientIgnoresGarbageAndWrongDirectionFrames: junk and misdirected
// kinds from the server side must be dropped.
func TestClientIgnoresGarbageAndWrongDirectionFrames(t *testing.T) {
	cli, srv, serverLink, _ := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	// Garbage.
	serverLink.Send([]byte{0xde, 0xad})
	// A ReadReq is client-to-server only; the client must ignore it.
	frame, err := wire.Encode(wire.Message{Kind: wire.KindReadReq, Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	serverLink.Send(frame)
	// An unsolicited WriteProp for an uncached key is a stale race: the
	// client must absorb it without allocating.
	frame, err = wire.Encode(wire.Message{Kind: wire.KindWriteProp, Key: "x", Value: []byte("zz"), Version: 99})
	if err != nil {
		t.Fatal(err)
	}
	serverLink.Send(frame)
	if cli.HasCopy("x") {
		t.Fatal("stale propagation allocated a copy")
	}
	if it, err := cli.Read("x"); err != nil || string(it.Value) != "v" {
		t.Fatalf("read after junk: %v %q", err, it.Value)
	}
}

// TestClientIgnoresUnsolicitedReadResp: a response with no waiter must not
// panic or wedge the pending queue.
func TestClientIgnoresUnsolicitedReadResp(t *testing.T) {
	cli, srv, serverLink, _ := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	frame, err := wire.Encode(wire.Message{Kind: wire.KindReadResp, Key: "x", Value: []byte("spoof"), Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	serverLink.Send(frame)
	if it, err := cli.Read("x"); err != nil || string(it.Value) != "v" {
		t.Fatalf("read after unsolicited response: %v %q", err, it.Value)
	}
}

// TestServerIgnoresStaleDeleteReq: a delete-request for a key the client
// does not hold must be a no-op.
func TestServerIgnoresStaleDeleteReq(t *testing.T) {
	cli, srv, _, clientLink := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	frame, err := wire.Encode(wire.Message{Kind: wire.KindDeleteReq, Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	clientLink.Send(frame)
	// Normal operation continues; allocation still works.
	cli.Read("x")
	cli.Read("x")
	if !cli.HasCopy("x") {
		t.Fatal("allocation broken after stale delete-request")
	}
}

// TestServerIgnoresBatchRespFromClient: a client must not be able to
// confuse the server with a response-kind batch.
func TestServerIgnoresBatchRespFromClient(t *testing.T) {
	cli, srv, _, clientLink := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	frame, err := wire.EncodeBatch(wire.Batch{Kind: wire.KindMultiReadResp,
		Entries: []wire.Entry{{Key: "x", Value: []byte("spoof"), Version: 7, Allocate: true}}})
	if err != nil {
		t.Fatal(err)
	}
	clientLink.Send(frame)
	if it, err := cli.Read("x"); err != nil || string(it.Value) != "v" {
		t.Fatalf("read after spoofed batch: %v %q", err, it.Value)
	}
}

// queueLink is one end of an in-process link whose frames wait in FIFO
// order until the test delivers them, so a test can interleave the two
// directions frame by frame.
type queueLink struct {
	mu      sync.Mutex
	peer    *queueLink
	handler transport.Handler
	queue   [][]byte // frames this end sent, not yet delivered
}

func newQueuePair() (*queueLink, *queueLink) {
	a, b := &queueLink{}, &queueLink{}
	a.peer, b.peer = b, a
	return a, b
}

func (l *queueLink) Send(frame []byte) error {
	l.mu.Lock()
	l.queue = append(l.queue, append([]byte(nil), frame...))
	l.mu.Unlock()
	return nil
}

func (l *queueLink) SetHandler(h transport.Handler) {
	l.mu.Lock()
	l.handler = h
	l.mu.Unlock()
}

func (l *queueLink) Close() error { return nil }

// deliver hands the oldest frame this end sent to the peer's handler and
// reports whether there was one.
func (l *queueLink) deliver() bool {
	l.mu.Lock()
	if len(l.queue) == 0 {
		l.mu.Unlock()
		return false
	}
	frame := l.queue[0]
	l.queue = l.queue[1:]
	l.mu.Unlock()
	l.peer.mu.Lock()
	h := l.peer.handler
	l.peer.mu.Unlock()
	h(frame)
	return true
}

// TestReassertedDeleteReqDoesNotRevokeNewerAllocation: an MC that
// deallocated and then reads remotely can receive a WriteProp the SC sent
// before it saw the deallocation, and re-asserts the deallocation behind
// its ReadReq. If the SC lets that re-assert revoke the copy the ReadReq
// just allocated, the MC keeps a copy the SC no longer propagates to and
// serves the stale value for good. The re-assert carries the version of
// the write that provoked it, and the SC ignores it against an allocation
// served at that version or later.
func TestReassertedDeleteReqDoesNotRevokeNewerAllocation(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	mcEnd, scEnd := newQueuePair()
	srv.Attach(scEnd)
	cli, err := NewClient(mcEnd, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	settle := func() {
		for mcEnd.deliver() || scEnd.deliver() {
		}
	}
	var last db.Item
	read := func() {
		cli.ReadThrough("x", 0, func(it db.Item, ok bool) {
			if ok {
				last = it
			}
		})
	}
	write := func(v string) {
		if _, err := srv.Write("x", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}

	write("v1")
	read() // remote; the SC's window slides to wwr
	settle()
	read() // remote; wrr is a read majority: allocate
	settle()
	read() // local: rrr
	write("v2")
	settle() // propagated: rrw
	read()   // local: rwr
	write("v3")
	scEnd.deliver() // wrw: the MC deallocates, DeleteReq#1 in flight
	write("v4")     // the SC still counts the copy: WriteProp(v4) in flight
	read()          // remote: the ReadReq queues behind DeleteReq#1
	scEnd.deliver() // WriteProp(v4) finds no copy: DeleteReq#2 re-asserts
	// The SC takes DeleteReq#1, then the ReadReq (window rwr: allocate at
	// v4), then the re-assert; the MC installs the allocated copy.
	settle()
	if !cli.HasCopy("x") || last.Version != 4 {
		t.Fatalf("after the crossing: copy %v, read v%d; want a copy and v4", cli.HasCopy("x"), last.Version)
	}
	write("v5")
	settle()
	read()
	settle()
	if last.Version != 5 {
		t.Fatalf("read v%d (%q) after write v5: the SC stopped propagating to an MC that still holds a copy", last.Version, last.Value)
	}
}
