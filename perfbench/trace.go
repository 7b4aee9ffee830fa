package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// Tracing is done entirely from the benchmark's side of each layer's
// public surface: spans around the calls the benchmark makes, a
// transport.Link wrapper that times Send and the handler the layer
// installs, and a db.FS wrapper that times the log's writes and fsyncs.
// No program code changes.

type layer uint8

const (
	lGen layer = iota
	lClient
	lServer
	lTransport
	lDB
	lTree
	lSim
	nLayers
)

var layerNames = [nLayers]string{"gen", "replica.client", "replica.server", "transport", "db", "tree", "sim"}

// span is one timed call. Spans of one operation share op; parent is
// the id of the span that caused this one (0 for none).
type span struct {
	id, parent, op uint64
	layer          layer
	write          bool // a Server.Write span: db spans it overlaps count as its children
	start, end     int64
}

type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	// writes maps (key, version) to the Server.Write span that produced
	// it, so a WriteProp seen on a transport goroutine joins its write's
	// operation.
	wmu    sync.Mutex
	writes map[writeKey]*writeInfo

	frames   [256]atomic.Int64 // frames sent, by wire kind
	sendNs   [256]atomic.Int64 // time in Send, by wire kind
	bytes    atomic.Int64
	resyncN  atomic.Int64 // keys declared in MC resync requests
	resyncs  atomic.Int64
	fsWrites atomic.Int64 // bytes written to the log
	edgeReqs atomic.Int64 // ReadReqs sent on tree edges
	mcReqs   atomic.Int64 // ReadReqs sent by MCs

	hmu         sync.Mutex
	clientDeliv []int64 // handler time of MC-side links
	serverReq   []int64 // handler time of ReadReq at the station an MC talks to
	edgeDeliv   []int64 // handler time on tree edges
	sends       []int64 // Send time, every wrapped link
	fsyncs      []int64
	commits     []int64 // Server.Write start to first WriteProp Send
}

type writeKey struct {
	key     string
	version uint64
}

type writeInfo struct {
	span  uint64
	start int64
	sent  bool
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, writes: make(map[writeKey]*writeInfo)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginWrite registers the span of a Server.Write that will commit
// (key, version) and returns its id.
func (t *tracer) beginWrite(key string, version uint64, start int64) uint64 {
	id := t.newID()
	t.wmu.Lock()
	t.writes[writeKey{key, version}] = &writeInfo{span: id, start: start}
	t.wmu.Unlock()
	return id
}

// writeSpan returns the write span of (key, version), and on the first
// WriteProp Send of that version also the commit time to it.
func (t *tracer) writeSpan(key string, version uint64, send bool, now int64) uint64 {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	w := t.writes[writeKey{key, version}]
	if w == nil {
		return 0
	}
	if send && !w.sent {
		w.sent = true
		t.hmu.Lock()
		t.commits = append(t.commits, now-w.start)
		t.hmu.Unlock()
	}
	return w.span
}

func (t *tracer) addDur(dst *[]int64, d int64) {
	t.hmu.Lock()
	*dst = append(*dst, d)
	t.hmu.Unlock()
}

// role says which end of which kind of edge a wrapped link is.
type role uint8

const (
	roleMC       role = iota // an MC's end of its link to a station
	roleStation              // the station's end of an MC link
	roleEdgeUp               // a relay's client end toward its parent
	roleEdgeDown             // the parent's server end toward a relay
)

// linkCtx is shared by both ends of one wrapped pair: the span the MC is
// currently inside (a read or a handoff), which a frame it causes on
// either end takes as parent.
type linkCtx struct{ cur atomic.Uint64 }

type tracedLink struct {
	inner     transport.Link
	t         *tracer
	role      role
	ctx       *linkCtx
	inHandler atomic.Uint64 // span of the handler running on this end
	inOp      atomic.Uint64 // and its operation
}

func wrapPair(t *tracer, a, b transport.Link, ra, rb role) (*tracedLink, *tracedLink) {
	ctx := &linkCtx{}
	return &tracedLink{inner: a, t: t, role: ra, ctx: ctx}, &tracedLink{inner: b, t: t, role: rb, ctx: ctx}
}

// parentOf picks the span and operation a frame belongs to: its write
// for a WriteProp (the id is derived from the key and version the frame
// carries), else the handler running on this end, else the MC's current
// span. Write, read and handoff spans are their operation's root.
func (l *tracedLink) parentOf(frame []byte, send bool, now int64) (k wire.Kind, parent, op uint64) {
	k, _ = wire.FrameKind(frame)
	if k == wire.KindWriteProp {
		if m, err := wire.DecodeBorrowed(frame); err == nil {
			w := l.t.writeSpan(m.Key, m.Version, send, now)
			return k, w, w
		}
	}
	if h := l.inHandler.Load(); h != 0 && send {
		return k, h, l.inOp.Load()
	}
	cur := l.ctx.cur.Load()
	return k, cur, cur
}

func (l *tracedLink) Send(frame []byte) error {
	t := l.t
	start := t.now()
	k, parent, op := l.parentOf(frame, true, start)
	t.frames[k].Add(1)
	t.bytes.Add(int64(len(frame)))
	if k == wire.KindReadReq {
		if l.role == roleEdgeUp {
			t.edgeReqs.Add(1)
		} else if l.role == roleMC {
			t.mcReqs.Add(1)
		}
	}
	if l.role == roleMC && wire.IsBatchFrame(frame) {
		if b, err := wire.DecodeBatch(frame); err == nil && b.Kind == wire.KindResyncReq {
			t.resyncs.Add(1)
			t.resyncN.Add(int64(len(b.Keys)))
		}
	}
	err := l.inner.Send(frame)
	end := t.now()
	t.addDur(&t.sends, end-start)
	t.sendNs[k].Add(end - start)
	t.record(span{id: t.newID(), parent: parent, op: op, layer: lTransport, start: start, end: end})
	return err
}

func (l *tracedLink) SetHandler(h transport.Handler) {
	t := l.t
	ly := lClient
	switch l.role {
	case roleStation:
		ly = lServer
	case roleEdgeUp, roleEdgeDown:
		ly = lTree
	}
	l.inner.SetHandler(func(frame []byte) {
		start := t.now()
		k, parent, op := l.parentOf(frame, false, start)
		id := t.newID()
		l.inOp.Store(op)
		l.inHandler.Store(id)
		h(frame)
		l.inHandler.Store(0)
		end := t.now()
		switch {
		case l.role == roleMC:
			t.addDur(&t.clientDeliv, end-start)
		case l.role == roleStation && k == wire.KindReadReq:
			t.addDur(&t.serverReq, end-start)
		case l.role == roleEdgeUp || l.role == roleEdgeDown:
			t.addDur(&t.edgeDeliv, end-start)
		}
		t.record(span{id: id, parent: parent, op: op, layer: ly, start: start, end: end})
	})
}

func (l *tracedLink) Close() error { return l.inner.Close() }

// tracedFS times the log's writes and fsyncs.
type tracedFS struct {
	db.FS
	t *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (db.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

type tracedFile struct {
	db.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	f.t.fsWrites.Add(int64(n))
	f.t.record(span{id: f.t.newID(), layer: lDB, start: start, end: f.t.now()})
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	end := f.t.now()
	f.t.addDur(&f.t.fsyncs, end-start)
	f.t.record(span{id: f.t.newID(), layer: lDB, start: start, end: end})
	return err
}

// selfTime sums, per layer, each span's duration minus the part of it
// that its children cover. A Server.Write span also counts the db spans
// it overlaps as children: the group-commit leader may be another
// writer's goroutine, but the write waits on that fsync all the same.
func (t *tracer) selfTime() [nLayers]int64 {
	byID := make(map[uint64]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.id] = i
	}
	kids := make(map[uint64][][2]int64)
	var dbs [][2]int64
	for _, s := range t.spans {
		if s.layer == lDB {
			dbs = append(dbs, [2]int64{s.start, s.end})
		}
		if s.parent != 0 {
			if _, ok := byID[s.parent]; ok {
				kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
			}
		}
	}
	sort.Slice(dbs, func(i, j int) bool { return dbs[i][0] < dbs[j][0] })
	var self [nLayers]int64
	for _, s := range t.spans {
		iv := kids[s.id]
		if s.write {
			lo := sort.Search(len(dbs), func(i int) bool { return dbs[i][0] >= s.start })
			for i := lo; i < len(dbs) && dbs[i][0] < s.end; i++ {
				iv = append(iv, dbs[i])
			}
		}
		self[s.layer] += s.end - s.start - covered(s.start, s.end, iv)
	}
	return self
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := v[0], v[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans dumps the spans as gzipped CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,op,layer,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.op, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
