package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dodo/internal/core"
	"dodo/internal/region"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// spanKind names the boundary a span was recorded at.
type spanKind uint8

const (
	// app -> region
	kCread spanKind = iota
	kCwrite
	// region -> core
	kMread
	kMwrite
	kMopen
	kMclose
	kMsync
	kMreadBatch
	// core/region -> backing
	kBackRead
	kBackWrite
	kBackSync
	// endpoint -> transport
	kSend
	// imd request-to-response
	kServeRead
	kServeWrite
)

func (k spanKind) layer() string {
	switch {
	case k <= kCwrite:
		return "region"
	case k <= kMreadBatch:
		return "core"
	case k <= kBackSync:
		return "backing"
	case k == kSend:
		return "transport"
	}
	return "imd"
}

// span is one interval at a layer boundary. Times are nanoseconds since
// the recorder's epoch; parent indexes the recorder's span list (-1 for
// an application operation, the root).
type span struct {
	start, end int64
	parent     int32
	op         int32 // timed-phase operation in flight, -1 outside one
	kind       spanKind
	timed      bool
	frame      wire.Type // kSend: the frame's wire type
}

// frameTally counts frames and their bytes.
type frameTally struct {
	frames, bytes int64
}

// maxSpans bounds the span list; past it spans are counted but not kept.
const maxSpans = 1 << 20

// recorder keeps every span in memory until the run ends. With one
// operation in flight, the innermost open span on the application's
// path (a core call inside a region call) is the parent of whatever
// starts beneath it, on any goroutine: the disk leg of an Mwrite, an
// imd serving the request, a frame on the wire.
type recorder struct {
	epoch time.Time

	mu sync.Mutex
	// guarded by mu
	spans   []span
	dropped int64
	frames  [256]frameTally // timed phase, per wire type
	bgs     [256]frameTally // background frames, timed phase
	// BulkData frames are too many to keep one span each (a 512 KB
	// read is 360 of them): their time is summed per parent span, and
	// every timed send's duration is kept for the percentiles.
	dataCover map[int32]int64
	sendDur   []int32

	op     atomic.Int32 // timed-phase op in flight, -1 between ops
	region atomic.Int32 // open app->region span, -1 when none
	core   atomic.Int32 // open region->core span, -1 when none
	timed  atomic.Bool
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), dataCover: make(map[int32]int64)}
	r.op.Store(-1)
	r.region.Store(-1)
	r.core.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (-1 once the list is full).
func (r *recorder) begin(kind spanKind, parent int32) int32 {
	s := span{start: r.now(), parent: parent, op: r.op.Load(), kind: kind, timed: r.timed.Load()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	t := r.now()
	if id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// innermost returns the open span new work on the application's path
// belongs to.
func (r *recorder) innermost() int32 {
	if c := r.core.Load(); c >= 0 {
		return c
	}
	return r.region.Load()
}

func (r *recorder) beginOp(kind spanKind) int32 {
	id := r.begin(kind, -1)
	r.region.Store(id)
	return id
}

func (r *recorder) endOp(id int32) {
	r.end(id)
	r.region.Store(-1)
}

func (r *recorder) beginCore(kind spanKind) int32 {
	id := r.begin(kind, r.region.Load())
	r.core.Store(id)
	return id
}

func (r *recorder) endCore(id int32) {
	r.end(id)
	r.core.Store(-1)
}

// background reports frame types that are not caused by an application
// operation: liveness echoes, availability reports and inventory
// re-reports run on timers.
func background(t wire.Type) bool {
	switch t {
	case wire.TKeepAlive, wire.TKeepAliveAck, wire.THostStatus, wire.THostStatusAck,
		wire.TInventoryReport, wire.TInventoryAck:
		return true
	}
	return false
}

// send records one frame leaving an endpoint.
func (r *recorder) send(t wire.Type, size int, start, end int64, parent int32) {
	s := span{start: start, end: end, parent: parent, op: r.op.Load(), kind: kSend,
		timed: r.timed.Load(), frame: t}
	bg := background(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.timed {
		tally := &r.frames[t]
		if bg {
			tally = &r.bgs[t]
		}
		tally.frames++
		tally.bytes += int64(size)
	}
	if bg {
		return
	}
	if s.timed {
		r.sendDur = append(r.sendDur, int32(min(end-start, math.MaxInt32)))
	}
	if t == wire.TBulkData {
		r.dataCover[parent] += end - start
		return
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// report hands the spans and tallies over once the run has ended.
func (r *recorder) report(res *result) *layerReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	lr := &layerReport{spans: r.spans, frames: r.frames, bgs: r.bgs, dropped: r.dropped, res: res}
	lr.self = selfTimes(r.spans, r.dataCover)
	for _, d := range r.sendDur {
		lr.sendTotal += int64(d)
	}
	lr.sends = make([]float64, len(r.sendDur))
	for i, d := range r.sendDur {
		lr.sends[i] = float64(d)
	}
	sort.Float64s(lr.sends)
	return lr
}

// tracedDodo times the region layer's calls into the runtime library.
type tracedDodo struct {
	c   *core.Client
	rec *recorder
}

var (
	_ region.Dodo        = (*tracedDodo)(nil)
	_ region.BatchReader = (*tracedDodo)(nil)
)

func (d *tracedDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	id := d.rec.beginCore(kMopen)
	defer d.rec.endCore(id)
	return d.c.Mopen(length, backing, offset)
}

func (d *tracedDodo) Mread(fd int, offset int64, buf []byte) (int, error) {
	id := d.rec.beginCore(kMread)
	defer d.rec.endCore(id)
	return d.c.Mread(fd, offset, buf)
}

func (d *tracedDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	id := d.rec.beginCore(kMwrite)
	defer d.rec.endCore(id)
	return d.c.Mwrite(fd, offset, buf)
}

func (d *tracedDodo) Mclose(fd int) error {
	id := d.rec.beginCore(kMclose)
	defer d.rec.endCore(id)
	return d.c.Mclose(fd)
}

func (d *tracedDodo) Msync(fd int) error {
	id := d.rec.beginCore(kMsync)
	defer d.rec.endCore(id)
	return d.c.Msync(fd)
}

func (d *tracedDodo) MreadBatch(reqs []core.BatchRead) []core.BatchResult {
	id := d.rec.beginCore(kMreadBatch)
	defer d.rec.endCore(id)
	return d.c.MreadBatch(reqs)
}

// tracedBacking times calls into the backing store from the region
// layer and from core (the disk leg of Mwrite, hedge legs).
type tracedBacking struct {
	b   core.Backing
	rec *recorder
}

var _ core.Backing = (*tracedBacking)(nil)

func (t *tracedBacking) ReadAt(p []byte, off int64) (int, error) {
	id := t.rec.begin(kBackRead, t.rec.innermost())
	defer t.rec.end(id)
	return t.b.ReadAt(p, off)
}

func (t *tracedBacking) WriteAt(p []byte, off int64) (int, error) {
	id := t.rec.begin(kBackWrite, t.rec.innermost())
	defer t.rec.end(id)
	return t.b.WriteAt(p, off)
}

func (t *tracedBacking) Sync() error {
	id := t.rec.begin(kBackSync, t.rec.innermost())
	defer t.rec.end(id)
	return t.b.Sync()
}

func (t *tracedBacking) Inode() uint64  { return t.b.Inode() }
func (t *tracedBacking) Writable() bool { return t.b.Writable() }

// serveKey matches an imd's response to the request it answers.
type serveKey struct {
	peer string
	seq  uint32
}

// tracedTransport times every frame an endpoint sends, classifying it
// by wire type, and for an imd the interval from receiving a read or
// write request to sending the response with the same Seq to the same
// peer. It keeps VecSender, so the bulk data plane's scatter-gather
// path stays in use.
type tracedTransport struct {
	tr  transport.Transport
	rec *recorder
	imd bool

	mu sync.Mutex
	// guarded by mu
	pend map[serveKey]int32
	// serving is the imd's open serve span (-1 when idle); frames it
	// sends meanwhile are its children.
	serving atomic.Int32
}

var (
	_ transport.Transport = (*tracedTransport)(nil)
	_ transport.VecSender = (*tracedTransport)(nil)
)

func newTracedTransport(tr transport.Transport, rec *recorder, imd bool) *tracedTransport {
	t := &tracedTransport{tr: tr, rec: rec, imd: imd, pend: make(map[serveKey]int32)}
	t.serving.Store(-1)
	return t
}

func (t *tracedTransport) LocalAddr() string { return t.tr.LocalAddr() }
func (t *tracedTransport) MTU() int          { return t.tr.MTU() }
func (t *tracedTransport) Close() error      { return t.tr.Close() }

func (t *tracedTransport) parent() int32 {
	if s := t.serving.Load(); s >= 0 {
		return s
	}
	return t.rec.innermost()
}

func (t *tracedTransport) Send(to string, data []byte) error {
	h, herr := wire.ParseHeader(data)
	start := t.rec.now()
	err := t.tr.Send(to, data)
	end := t.rec.now()
	if herr == nil {
		t.rec.send(h.Type, len(data), start, end, t.parent())
		if t.imd && (h.Type == wire.TDataResp || h.Type == wire.TReadBatchResp) {
			t.finishServe(to, h.Seq)
		}
	}
	return err
}

func (t *tracedTransport) SendVec(to string, prefix, payload []byte) error {
	typ, ok := vecType(prefix, len(payload))
	start := t.rec.now()
	var err error
	if vs, isVec := t.tr.(transport.VecSender); isVec {
		err = vs.SendVec(to, prefix, payload)
	} else {
		err = t.tr.Send(to, append(append([]byte(nil), prefix...), payload...))
	}
	end := t.rec.now()
	if ok {
		t.rec.send(typ, len(prefix)+len(payload), start, end, t.parent())
	}
	return err
}

// vecType classifies a two-segment frame with wire.ParseHeader: the
// header is validated on its own (payload length zeroed), then its
// declared length is checked against the two segments.
func vecType(prefix []byte, payloadLen int) (wire.Type, bool) {
	if len(prefix) < wire.HeaderSize {
		return 0, false
	}
	var hdr [wire.HeaderSize]byte
	copy(hdr[:8], prefix)
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		return 0, false
	}
	declared := int(prefix[8])<<24 | int(prefix[9])<<16 | int(prefix[10])<<8 | int(prefix[11])
	if declared != len(prefix)-wire.HeaderSize+payloadLen {
		return 0, false
	}
	return h.Type, true
}

func (t *tracedTransport) Recv(timeout time.Duration) ([]byte, string, error) {
	data, from, err := t.tr.Recv(timeout)
	if err != nil || !t.imd {
		return data, from, err
	}
	if h, herr := wire.ParseHeader(data); herr == nil {
		switch h.Type {
		case wire.TReadReq, wire.TReadBatchReq:
			t.startServe(kServeRead, from, h.Seq)
		case wire.TWriteReq:
			t.startServe(kServeWrite, from, h.Seq)
		}
	}
	return data, from, err
}

func (t *tracedTransport) startServe(kind spanKind, from string, seq uint32) {
	id := t.rec.begin(kind, t.rec.innermost())
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.pend[serveKey{from, seq}] = id
	t.mu.Unlock()
	t.serving.Store(id)
}

func (t *tracedTransport) finishServe(to string, seq uint32) {
	k := serveKey{to, seq}
	t.mu.Lock()
	id, ok := t.pend[k]
	delete(t.pend, k)
	t.mu.Unlock()
	if !ok {
		return
	}
	t.rec.end(id)
	t.serving.CompareAndSwap(id, -1)
}

// errNoSpans reports a traced run that recorded nothing to analyse.
var errNoSpans = errors.New("traced run recorded no spans")
