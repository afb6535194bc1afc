package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/region"
)

// counters is a snapshot of every counter the program exposes.
type counters struct {
	region region.Stats
	core   core.Stats
	imd    imd.Stats // summed over the imds
	mgr    manager.Snapshot
}

func (st *stack) counters() counters {
	c := counters{region: st.cache.Stats(), core: st.cli.Stats(), mgr: st.mgr.Stats()}
	for _, d := range st.imds {
		s := d.Stats()
		c.imd.Reads += s.Reads
		c.imd.Writes += s.Writes
		c.imd.ChecksumRejects += s.ChecksumRejects
	}
	return c
}

// result is what one run measured.
type result struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64

	setups  []time.Duration
	elapsed time.Duration
	rounds  int
	creads  int64
	cwrites int64
	bytes   int64
	// readLat holds every Cread latency of the timed phase.
	readLat  []time.Duration
	perRound []roundStat
	cpu      time.Duration
	// liveHeap is the heap in use after a forced collection at the end
	// of the spec's heapRounds-th round.
	liveHeap uint64

	mem0, mem1               runtime.MemStats
	before, after            counters
	localReads, throughReads int64
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) ops() int64 { return r.creads + r.cwrites }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundStat is what one round of the timed phase measured. The
// end-to-end metrics are medians over rounds, so a burst of outside
// load on a shared machine moves a few rounds, not the result.
type roundStat struct {
	elapsed, cpu time.Duration
	bytes        int64
	ops          int
	// p50 and p90 are the round's Cread latency percentiles in µs.
	p50, p90 float64
}

// runner executes one workload's request streams against a stack and
// checks every answer against the model.
type runner struct {
	sp   *spec
	seed int64
	m    *model
	st   *stack
	rec  *recorder
	res  *result
	buf  []byte
	// last is the cache's counters after the previous operation, for
	// telling local hits from read-throughs.
	last region.Stats
}

// do issues one request and checks it. timed marks the timed phase,
// whose operations are counted and whose Cread latencies are kept.
func (rn *runner) do(o op, seq int32, timed bool) {
	buf := rn.buf[:o.size]
	fd := rn.st.fds[o.block]
	blk := int(o.block)
	var span int32
	kind := kCread
	if o.write {
		kind = kCwrite
		rn.m.prepareWrite(buf, blk)
	}
	if rn.rec != nil {
		if timed {
			rn.rec.op.Store(seq)
		}
		span = rn.rec.beginOp(kind)
	}
	var n int
	var err error
	start := time.Now()
	if o.write {
		n, err = rn.st.cache.Cwrite(fd, 0, buf)
	} else {
		n, err = rn.st.cache.Cread(fd, 0, buf)
	}
	lat := time.Since(start)
	if rn.rec != nil {
		rn.rec.endOp(span)
		rn.rec.op.Store(-1)
	}
	ok := err == nil && n == len(buf)
	if ok && !o.write {
		ok = rn.m.matches(buf, blk)
	}
	res := rn.res
	if !timed {
		if !ok {
			res.problem("setup %v of block %d failed: n=%d err=%v", kind, blk, n, err)
		}
		return
	}
	res.attempted++
	if !ok {
		res.failed++
		if res.failed <= 3 {
			res.problems = append(res.problems, fmt.Sprintf("op %d (%v of block %d, %d bytes) failed: n=%d err=%v", seq, kind, blk, len(buf), n, err))
		}
	}
	if o.write {
		res.cwrites++
		res.bytes += int64(len(buf))
		rn.last = rn.st.cache.Stats()
		return
	}
	res.creads++
	res.bytes += int64(len(buf))
	res.readLat = append(res.readLat, lat)
	s := rn.st.cache.Stats()
	switch {
	case s.LocalHits > rn.last.LocalHits:
		res.localReads++
	case s.RemoteReads+s.DiskReads-rn.last.RemoteReads-rn.last.DiskReads >= int64(n):
		res.throughReads++
	}
	rn.last = s
}

func (k spanKind) String() string {
	switch k {
	case kCread:
		return "Cread"
	case kCwrite:
		return "Cwrite"
	}
	return fmt.Sprintf("span(%d)", k)
}

// runWorkload sets the stack up, runs whole rounds until `seconds`
// have passed, then syncs, closes and checks the backing store, and
// finally times setups-1 further setups. With rec set, the stack is
// traced. tweak, when set, alters the model before each setup (tests
// use it to break the check on purpose).
func runWorkload(sp *spec, seed int64, seconds float64, setups int, rec *recorder, tweak func(*model)) (*result, error) {
	rng := rand.New(rand.NewSource(seed))
	populate, rounds := sp.inputs(rng)
	maxSize := int32(0)
	for _, ops := range append([][]op{populate}, rounds...) {
		for _, o := range ops {
			if o.size > maxSize {
				maxSize = o.size
			}
		}
	}
	res := &result{correct: true}
	rn := &runner{sp: sp, seed: seed, rec: rec, res: res, buf: make([]byte, maxSize)}
	st, err := rn.setup(populate, tweak)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// The timed phase starts from a collected heap, so garbage left by
	// setup is not charged to it.
	runtime.GC()
	res.readLat = make([]time.Duration, 0, 1<<16)
	res.before = st.counters()
	rn.last = res.before.region
	runtime.ReadMemStats(&res.mem0)
	if rec != nil {
		rec.timed.Store(true)
	}
	cpu0 := cpuTime()
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	seq := int32(0)
	for res.elapsed < limit {
		r0, c0, b0, l0 := time.Now(), cpuTime(), res.bytes, len(res.readLat)
		ops := rounds[res.rounds%len(rounds)]
		for _, o := range ops {
			rn.do(o, seq, true)
			seq++
		}
		rs := roundStat{elapsed: time.Since(r0), cpu: cpuTime() - c0, bytes: res.bytes - b0, ops: len(ops)}
		lat := durationsUS(res.readLat[l0:])
		rs.p50, rs.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
		res.perRound = append(res.perRound, rs)
		res.rounds++
		if res.rounds == sp.heapRounds {
			res.liveHeap = liveHeap()
		}
		res.elapsed = time.Since(start)
	}
	res.cpu = cpuTime() - cpu0
	if rec != nil {
		rec.timed.Store(false)
	}
	runtime.ReadMemStats(&res.mem1)
	res.after = st.counters()
	if res.rounds < sp.heapRounds {
		res.liveHeap = liveHeap()
	}

	// Disk is the source of truth: once every region is synced and
	// closed, the backing store must equal the write record.
	if err := st.syncAndClose(); err != nil {
		res.problem("final sync/close: %v", err)
	}
	if err := rn.m.verifyStore(st.disk); err != nil {
		res.problem("%v", err)
	}
	res.checkHealthy(st.counters())
	st.close()

	// Further setups run after the timed phase: a closed deployment's
	// memory stays reachable for a while (see README), and the live
	// heap of the timed phase must not carry it.
	for i := 1; i < setups; i++ {
		extra, err := rn.setup(populate, tweak)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	return res, nil
}

// setup builds the dataset (untimed: it stands for data already on
// disk), then times starting the daemons and the client, opening every
// region and the population pass.
func (rn *runner) setup(populate []op, tweak func(*model)) (*stack, error) {
	sp := rn.sp
	rn.m = newModel(rn.seed, sp.blocks, sp.blockSize)
	if tweak != nil {
		tweak(rn.m)
	}
	disk, err := newDisk(sp, rn.m)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	st, err := startStack(sp, disk, rn.rec)
	if err != nil {
		return nil, err
	}
	rn.st = st
	for _, o := range populate {
		rn.do(o, -1, false)
	}
	rn.res.setups = append(rn.res.setups, time.Since(t0))
	return st, nil
}

// liveHeap is the Go heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkHealthy checks the properties every fault-free run must have.
func (r *result) checkHealthy(end counters) {
	if end.region.DiskSpills != 0 {
		r.problem("region: %d disk spills", end.region.DiskSpills)
	}
	if end.core.DropEvents != 0 {
		r.problem("core: %d drop events", end.core.DropEvents)
	}
	if end.core.ChecksumFailures != 0 {
		r.problem("core: %d checksum failures", end.core.ChecksumFailures)
	}
	if end.imd.ChecksumRejects != 0 {
		r.problem("imd: %d checksum rejects", end.imd.ChecksumRejects)
	}
	if end.mgr.AllocFailures != 0 {
		r.problem("manager: %d alloc failures", end.mgr.AllocFailures)
	}
	if r.localReads+r.throughReads != r.creads {
		r.problem("region: %d local hits + %d read-throughs != %d Creads", r.localReads, r.throughReads, r.creads)
	}
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// metric is one named value in the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd derives the six end-to-end metrics of an untraced run.
// setup_s is the median setup. The timed-phase figures are taken over
// its rounds, at the quartile on the better side: on a shared machine
// outside load only ever slows a round down, so the faster rounds show
// the program's own cost and repeat from run to run.
func (r *result) endToEnd() []metric {
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	n := len(r.perRound)
	tput, p50, p90, cpu := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, rs := range r.perRound {
		tput[i] = float64(rs.bytes) / mb / rs.elapsed.Seconds()
		p50[i], p90[i] = rs.p50, rs.p90
		cpu[i] = float64(rs.cpu) / 1e3 / float64(rs.ops)
	}
	lowQ := func(v []float64) float64 { q1, _, _ := quartiles(v); return q1 }
	highQ := func(v []float64) float64 { _, _, q3 := quartiles(v); return q3 }
	return []metric{
		{"setup_s", "s", median(setups)},
		{"throughput_mbps", "MB/s", highQ(tput)},
		{"read_p50_us", "us", lowQ(p50)},
		{"read_p90_us", "us", lowQ(p90)},
		{"cpu_us_per_op", "us", lowQ(cpu)},
		{"live_heap_mb", "MB", float64(r.liveHeap) / mb},
	}
}

// runtimeMetrics are the process-wide collector and allocator figures
// of the timed phase.
func (r *result) runtimeMetrics() []metric {
	ops := float64(r.ops())
	return []metric{
		{"runtime.alloc_kb_per_op", "KB", float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / kb / ops},
		{"runtime.allocs_per_op", "count", float64(r.mem1.Mallocs-r.mem0.Mallocs) / ops},
		{"runtime.gc_cycles", "count", float64(r.mem1.NumGC - r.mem0.NumGC)},
		{"runtime.gc_pause_ms", "ms", float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6},
	}
}
