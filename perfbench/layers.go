package main

import (
	"fmt"
	"sort"
	"time"

	"dodo/internal/wire"
)

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover, and minus the summed time
// of its BulkData sends (dataCover, by parent).
func selfTimes(spans []span, dataCover map[int32]int64) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		dur := s.end - s.start
		if s.end == 0 || dur < 0 {
			continue // never closed (the run ended inside it)
		}
		ivs = ivs[:0]
		for _, c := range children[i] {
			cs := spans[c]
			if cs.end == 0 {
				continue
			}
			a, b := max(cs.start, s.start), min(cs.end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		cur := iv{-1, -1}
		for _, v := range ivs {
			if v.a > cur.b {
				covered += cur.b - cur.a
				cur = v
			} else if v.b > cur.b {
				cur.b = v.b
			}
		}
		covered += cur.b - cur.a + dataCover[int32(i)]
		self[i] = max(dur-covered, 0)
	}
	return self
}

// layerReport turns a traced run into the per-layer metrics.
type layerReport struct {
	spans   []span
	self    []int64
	frames  [256]frameTally
	bgs     [256]frameTally
	dropped int64
	res     *result
	// sends holds every timed send's duration in ns, sorted.
	sends     []float64
	sendTotal int64
}

func (lr *layerReport) durations(keep func(i int, s span) bool) []float64 {
	var out []float64
	for i, s := range lr.spans {
		if s.end != 0 && keep(i, s) {
			out = append(out, float64(s.end-s.start))
		}
	}
	sort.Float64s(out)
	return out
}

func p50us(d []float64) float64 { return quantile(d, 0.5) / 1e3 }

func (lr *layerReport) count(kind spanKind) float64 {
	n := 0
	for _, s := range lr.spans {
		if s.timed && s.kind == kind {
			n++
		}
	}
	return float64(n)
}

// selfTotal sums the self time of a layer's timed spans. Sends are
// leaves, so the transport layer's self time is all of their time.
func (lr *layerReport) selfTotal(layer string) int64 {
	if layer == "transport" {
		return lr.sendTotal
	}
	total := int64(0)
	for i, s := range lr.spans {
		if s.timed && s.kind.layer() == layer {
			total += lr.self[i]
		}
	}
	return total
}

// selfPerOp is a layer's self time per operation, in µs.
func (lr *layerReport) selfPerOp(layer string) float64 {
	return float64(lr.selfTotal(layer)) / 1e3 / float64(lr.res.ops())
}

// metrics derives every per-layer metric; untraced is the untraced run
// of the same workload, for the runtime figures and the overhead.
func (lr *layerReport) metrics(untraced *result) []metric {
	r := lr.res
	ops := float64(r.ops())
	perOp := func(v int64) float64 { return float64(v) / ops }
	d := func(a, b int64) int64 { return b - a }
	rb, ra := r.before.region, r.after.region
	cb, ca := r.before.core, r.after.core
	ib, ia := r.before.imd, r.after.imd

	// A Cread that made no call into core or the backing was served
	// locally; one with a core child went to remote memory.
	hasChild := make([]uint8, len(lr.spans))
	for _, s := range lr.spans {
		if s.parent >= 0 && int(s.parent) < len(lr.spans) {
			switch s.kind.layer() {
			case "core":
				hasChild[s.parent] |= 2
			case "backing":
				hasChild[s.parent] |= 1
			}
		}
	}
	timedKind := func(k spanKind) func(int, span) bool {
		return func(_ int, s span) bool { return s.timed && s.kind == k }
	}
	creadAll := lr.durations(timedKind(kCread))
	creadLocal := lr.durations(func(i int, s span) bool { return s.timed && s.kind == kCread && hasChild[i] == 0 })
	creadRemote := lr.durations(func(i int, s span) bool { return s.timed && s.kind == kCread && hasChild[i]&2 != 0 })
	mopen := lr.durations(func(_ int, s span) bool { return s.kind == kMopen })

	var frames, bytes, payload, data, nack, handshake, bg int64
	for t, f := range lr.frames {
		frames += f.frames
		bytes += f.bytes
		payload += f.bytes - f.frames*wire.HeaderSize
		switch wire.Type(t) {
		case wire.TBulkData:
			data += f.frames
		case wire.TBulkNack:
			nack += f.frames
		case wire.TBulkOffer, wire.TBulkAccept:
			handshake += f.frames
		}
	}
	for _, f := range lr.bgs {
		bg += f.frames
	}
	goodput := 0.0
	if payload > 0 {
		goodput = float64(r.bytes) / float64(payload)
	}
	untracedTput := untraced.endToEnd()[1].value
	tracedTput := r.endToEnd()[1].value

	ms := []metric{
		{"region.cread_local_p50_us", "us", p50us(creadLocal)},
		{"region.cread_remote_p50_us", "us", p50us(creadRemote)},
		{"region.cread_p99_us", "us", quantile(creadAll, 0.99) / 1e3},
		{"region.cwrite_p50_us", "us", p50us(lr.durations(timedKind(kCwrite)))},
		{"region.self_us_per_op", "us", lr.selfPerOp("region")},
		{"region.promotions_per_op", "count", perOp(d(rb.Promotions, ra.Promotions))},
		{"region.evictions_per_op", "count", perOp(d(rb.Evictions, ra.Evictions))},
		{"region.writebacks_per_op", "count", perOp(d(rb.WriteBacks, ra.WriteBacks))},
		{"region.local_hit_ratio", "ratio", float64(len(creadLocal)) / float64(max(len(creadAll), 1))},
		{"region.disk_spills", "count", float64(ra.DiskSpills)},

		{"core.mread_p50_us", "us", p50us(lr.durations(timedKind(kMread)))},
		{"core.mread_per_op", "count", lr.count(kMread) / ops},
		{"core.mwrite_p50_us", "us", p50us(lr.durations(timedKind(kMwrite)))},
		{"core.mwrite_per_op", "count", lr.count(kMwrite) / ops},
		{"core.mopen_p50_us", "us", p50us(mopen)},
		{"core.inline_reads_per_op", "count", perOp(d(cb.InlineReads, ca.InlineReads))},
		{"core.eager_reads_per_op", "count", perOp(d(cb.EagerReads, ca.EagerReads))},
		{"core.hedged_reads_per_op", "count", perOp(d(cb.HedgedReads, ca.HedgedReads))},
		{"core.hedge_wins", "count", float64(d(cb.HedgeWins, ca.HedgeWins))},
		{"core.self_us_per_op", "us", lr.selfPerOp("core")},
		{"core.drop_events", "count", float64(ca.DropEvents)},
		{"core.checksum_failures", "count", float64(ca.ChecksumFailures)},

		{"backing.reads_per_op", "count", lr.count(kBackRead) / ops},
		{"backing.writes_per_op", "count", lr.count(kBackWrite) / ops},
		{"backing.write_p50_us", "us", p50us(lr.durations(timedKind(kBackWrite)))},
		{"backing.self_us_per_op", "us", lr.selfPerOp("backing")},

		{"wire.frames_per_op", "count", float64(frames) / ops},
		{"wire.bytes_per_op", "B", float64(bytes) / ops},
		{"wire.control_frames_per_op", "count", float64(frames-data) / ops},
		{"wire.background_frames", "count", float64(bg)},
		{"bulk.data_frames_per_op", "count", float64(data) / ops},
		{"bulk.nack_frames_per_op", "count", float64(nack) / ops},
		{"bulk.handshake_frames_per_op", "count", float64(handshake) / ops},
		{"bulk.goodput_ratio", "ratio", goodput},

		{"transport.send_p50_ns", "ns", quantile(lr.sends, 0.5)},
		{"transport.send_us_per_op", "us", float64(lr.sendTotal) / 1e3 / ops},

		{"imd.serve_read_p50_us", "us", p50us(lr.durations(timedKind(kServeRead)))},
		{"imd.serve_write_p50_us", "us", p50us(lr.durations(timedKind(kServeWrite)))},
		{"imd.self_us_per_op", "us", lr.selfPerOp("imd")},
		{"imd.reads_per_op", "count", perOp(d(ib.Reads, ia.Reads))},
		{"imd.writes_per_op", "count", perOp(d(ib.Writes, ia.Writes))},
		{"imd.checksum_rejects", "count", float64(ia.ChecksumRejects)},

		{"manager.allocs", "count", float64(r.after.mgr.Allocs)},
		{"manager.alloc_failures", "count", float64(r.after.mgr.AllocFailures)},
	}
	ms = append(ms, untraced.runtimeMetrics()...)
	ms = append(ms,
		metric{"trace.throughput_mbps", "MB/s", tracedTput},
		metric{"trace.untraced_throughput_mbps", "MB/s", untracedTput},
		metric{"trace.overhead_pct", "%", (untracedTput/tracedTput - 1) * 100},
		metric{"trace.spans", "count", float64(len(lr.spans))},
		metric{"trace.spans_dropped", "count", float64(lr.dropped)},
	)
	return ms
}

// frameTable lists the timed phase's frames per operation by wire type.
func (lr *layerReport) frameTable() []string {
	ops := float64(lr.res.ops())
	var lines []string
	add := func(prefix string, tallies [256]frameTally) {
		for t, f := range tallies {
			if f.frames > 0 {
				lines = append(lines, fmt.Sprintf("%s %-18s %10.4f frames/op %12.1f B/op", prefix, wire.Type(t), float64(f.frames)/ops, float64(f.bytes)/ops))
			}
		}
	}
	add("frames", lr.frames)
	add("background", lr.bgs)
	return lines
}

// layerSelf sums each layer's self time over the timed phase.
func (lr *layerReport) layerSelf() []string {
	var out []string
	for _, l := range []string{"region", "core", "backing", "transport", "imd"} {
		total := lr.selfTotal(l)
		out = append(out, fmt.Sprintf("self %-9s %10.2f us/op  (%v total)", l, float64(total)/1e3/float64(lr.res.ops()), time.Duration(total).Round(time.Microsecond)))
	}
	return out
}
