package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// tcpPair returns a dialed client link and a channel of frames received by
// the accepted server link (copied out of the borrowed handler buffer).
func tcpPair(t *testing.T) (*TCPLink, *Listener, chan []byte) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan []byte, 4096)
	go func() {
		link, err := ln.Accept()
		if err != nil {
			return
		}
		link.SetHandler(func(f []byte) { got <- append([]byte(nil), f...) })
		link.Start(nil)
	}()
	cli, err := DialLink(ln.Addr(), func([]byte) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, ln, got
}

func TestTCPCoalescedInOrderDelivery(t *testing.T) {
	cli, _, got := tcpPair(t)
	cli.SetCoalesce(true)
	if !cli.Coalescing() {
		t.Fatal("SetCoalesce(true) did not stick")
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := cli.Send([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-got:
			if want := fmt.Sprintf("frame-%d", i); string(f) != want {
				t.Fatalf("frame %d: got %q, want %q", i, f, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d frames arrived", i, n)
		}
	}
	st := cli.Stats()
	if st.Frames != n {
		t.Fatalf("stats count %d frames, want %d", st.Frames, n)
	}
	if st.Flushes == 0 || st.Flushes > st.Frames {
		t.Fatalf("implausible flush count %d for %d frames", st.Flushes, st.Frames)
	}
	if saved := 2*st.Frames - st.Flushes; saved <= st.Frames {
		t.Fatalf("coalescing saved %d syscalls over %d frames — worse than the two-write path", saved, st.Frames)
	}
}

func TestTCPCoalescedZeroLengthFrames(t *testing.T) {
	cli, _, got := tcpPair(t)
	cli.SetCoalesce(true)
	// Zero-length frames through the coalescing queue: each is a bare
	// 4-byte header and must arrive as an empty (not dropped) frame,
	// interleaved in order with payload frames.
	for i := 0; i < 10; i++ {
		var f []byte
		if i%2 == 1 {
			f = []byte{byte(i)}
		}
		if err := cli.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		select {
		case f := <-got:
			if i%2 == 0 && len(f) != 0 {
				t.Fatalf("frame %d: want empty, got %x", i, f)
			}
			if i%2 == 1 && !bytes.Equal(f, []byte{byte(i)}) {
				t.Fatalf("frame %d: got %x", i, f)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestTCPMaxFrameBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("16MB frames in -short mode")
	}
	cli, _, got := tcpPair(t)
	// Exactly at the limit: accepted and delivered intact.
	at := make([]byte, maxFrame)
	at[0], at[maxFrame-1] = 0xAB, 0xCD
	if err := cli.Send(at); err != nil {
		t.Fatalf("frame at maxFrame rejected: %v", err)
	}
	select {
	case f := <-got:
		if len(f) != maxFrame || f[0] != 0xAB || f[maxFrame-1] != 0xCD {
			t.Fatalf("boundary frame mangled: len=%d", len(f))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("boundary frame never arrived")
	}
	// One over: rejected with an error, but nothing hit the wire, so the
	// link must stay alive and usable.
	if err := cli.Send(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("frame over maxFrame accepted")
	}
	if err := cli.Send([]byte("still-alive")); err != nil {
		t.Fatalf("link died after oversized-frame rejection: %v", err)
	}
	select {
	case f := <-got:
		if string(f) != "still-alive" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-rejection frame never arrived")
	}
}

// TestTCPFlushConcurrentClose races senders, flushers, and Close under the
// race detector: no write may panic or corrupt state, whatever interleaving
// the scheduler picks. Errors (ErrClosed, broken pipe) are expected.
func TestTCPFlushConcurrentClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		cli, _, _ := tcpPair(t)
		cli.SetCoalesce(true)
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				frame := bytes.Repeat([]byte{byte(s)}, 64)
				for i := 0; i < 50; i++ {
					if err := cli.Send(frame); err != nil {
						return
					}
				}
			}(s)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = cli.Flush()
			}
		}()
		go func() {
			defer wg.Done()
			cli.Close()
		}()
		wg.Wait()
		if err := cli.Send([]byte("x")); err != ErrClosed {
			t.Fatalf("send after close: %v", err)
		}
	}
}

// TestTCPWriteFailureShutsLinkDown covers the partial-write corruption
// fix: once any write fails, the byte stream is unrecoverable for the
// peer, so the link must die — not hand back an error on a live link —
// and the write error must surface through the close callback.
func TestTCPWriteFailureShutsLinkDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	link := NewTCPLink(conn)
	link.SetHandler(func([]byte) {})
	closed := make(chan error, 1)
	link.Start(func(err error) { closed <- err })

	// Sever the write half under the link, then write until the failure
	// shows. The peer stays open: closing it instead lets the read loop
	// see EOF first, and the link then dies as a clean shutdown before
	// any write has failed.
	srvConn := <-accepted
	defer srvConn.Close()
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 1<<16)
	var sendErr error
	for i := 0; i < 100 && sendErr == nil; i++ {
		sendErr = link.Send(payload)
	}
	if sendErr == nil {
		t.Fatal("writes to a severed connection never failed")
	}
	// The failed write must have killed the link.
	if err := link.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("link still alive after write failure: %v", err)
	}
	// And the close callback reports the write error as the reason, not a
	// clean shutdown.
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("onClose reported clean shutdown after a write failure")
		}
		if err != sendErr {
			t.Fatalf("onClose reported %v, want the write error %v", err, sendErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close callback never fired")
	}
}

// TestTCPReceiveAllocsSteadyState pins the receive path: after the first
// frame grows the loop's buffer, further same-sized frames must be
// delivered with zero per-frame allocations.
func TestTCPReceiveAllocsSteadyState(t *testing.T) {
	// Indirect pin: the readLoop buffer is reused, so the handler must see
	// the SAME backing array across frames. (A direct AllocsPerRun is
	// impossible across goroutines; buffer identity is the observable.)
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ptrs := make(chan *byte, 16)
	go func() {
		link, err := ln.Accept()
		if err != nil {
			return
		}
		link.SetHandler(func(f []byte) {
			if len(f) > 0 {
				ptrs <- &f[0]
			}
		})
		link.Start(nil)
	}()
	cli, err := Dial(ln.Addr(), func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var first *byte
	for i := 0; i < 8; i++ {
		if err := cli.Send(bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-ptrs:
			if first == nil {
				first = p
			} else if p != first {
				t.Fatalf("frame %d delivered in a fresh buffer — receive path allocates per frame", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}
