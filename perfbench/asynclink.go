package main

import (
	"sync"
	"sync/atomic"

	"mobirep/internal/transport"
)

// hub delivers the frames of every in-process fleet link on a fixed set
// of delivery goroutines. transport.NewMemPair runs the receiver's
// handler on the sender's stack, so a Server.Write fanning out to a
// thousand simulated MCs would pay for all of their client work; here a
// Send only copies the frame into a queue and returns.
//
// Both directions of one link pair share a queue, so frames stay in
// order per direction, as the transport contract requires.
type hub struct {
	queues []*frameQueue
	wg     sync.WaitGroup
	next   atomic.Uint32
}

type frame struct {
	dst *asyncLink
	buf []byte
}

// frameQueue is unbounded: a handler running on the delivery goroutine
// may Send into its own queue (a ReadResp answered by a DeleteReq), and a
// bounded queue would deadlock there.
type frameQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	frames  []frame
	closing bool
}

var framePool = sync.Pool{New: func() any { return new([]byte) }}

func newHub(workers int) *hub {
	h := &hub{queues: make([]*frameQueue, workers)}
	for i := range h.queues {
		q := &frameQueue{}
		q.cond = sync.NewCond(&q.mu)
		h.queues[i] = q
		h.wg.Add(1)
		go h.deliver(q)
	}
	return h
}

// pair returns two connected link ends served by one delivery goroutine,
// chosen round-robin.
func (h *hub) pair() (*asyncLink, *asyncLink) {
	q := h.queues[int(h.next.Add(1))%len(h.queues)]
	a := &asyncLink{q: q}
	b := &asyncLink{q: q}
	a.peer, b.peer = b, a
	return a, b
}

func (h *hub) deliver(q *frameQueue) {
	defer h.wg.Done()
	var batch []frame
	for {
		q.mu.Lock()
		for len(q.frames) == 0 && !q.closing {
			q.cond.Wait()
		}
		if len(q.frames) == 0 {
			q.mu.Unlock()
			return
		}
		batch, q.frames = q.frames, batch[:0]
		q.mu.Unlock()
		for i := range batch {
			f := batch[i]
			if !f.dst.closed.Load() {
				if hp := f.dst.handler.Load(); hp != nil {
					(*hp)(f.buf)
				}
			}
			b := f.buf[:0]
			framePool.Put(&b)
			batch[i] = frame{}
		}
	}
}

// stop drains every queue and waits for the delivery goroutines to exit.
func (h *hub) stop() {
	for _, q := range h.queues {
		q.mu.Lock()
		q.closing = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	h.wg.Wait()
}

// asyncLink is one end of a hub-delivered pair.
type asyncLink struct {
	q       *frameQueue
	peer    *asyncLink
	handler atomic.Pointer[transport.Handler]
	closed  atomic.Bool
}

func (l *asyncLink) Send(p []byte) error {
	if l.closed.Load() || l.peer.closed.Load() {
		return transport.ErrClosed
	}
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], p...)
	l.q.mu.Lock()
	if l.q.closing {
		l.q.mu.Unlock()
		return transport.ErrClosed
	}
	l.q.frames = append(l.q.frames, frame{dst: l.peer, buf: buf})
	l.q.cond.Signal()
	l.q.mu.Unlock()
	return nil
}

func (l *asyncLink) SetHandler(h transport.Handler) { l.handler.Store(&h) }

func (l *asyncLink) Close() error {
	l.closed.Store(true)
	return nil
}
