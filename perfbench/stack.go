package main

import (
	"errors"
	"fmt"
	"time"

	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/region"
	"dodo/internal/transport"
)

// stack is one live deployment in this process: a central manager, four
// imds and one client, assembled only from the public constructors with
// the program's default settings. Only sizes, the replacement policy and
// the transport come from the workload.
type stack struct {
	mgr   *manager.Manager
	imds  []*imd.Daemon
	cli   *core.Client
	cache *region.Cache
	// disk is the backing store; backing is what the cache is handed
	// (disk itself, or disk behind the tracing wrapper).
	disk    *core.MemBacking
	backing core.Backing
	fds     []int
	closed  bool
}

// transports opens the workload's endpoints: the manager's first, then
// the imds', then the client's.
func openTransports(sp *spec) ([]transport.Transport, error) {
	n := 2 + imdCount
	trs := make([]transport.Transport, 0, n)
	if !sp.udp {
		net := transport.NewNetwork(transport.WithMTU(1500))
		trs = append(trs, net.Host("cmd"))
		for i := 0; i < imdCount; i++ {
			trs = append(trs, net.Host(fmt.Sprintf("imd%d", i)))
		}
		return append(trs, net.Host("client")), nil
	}
	for i := 0; i < n; i++ {
		u, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			for _, t := range trs {
				_ = t.Close()
			}
			return nil, err
		}
		trs = append(trs, u)
	}
	return trs, nil
}

// newDisk builds the backing store holding version 0 of every block.
// It runs before the setup clock starts: it stands for the dataset
// already on disk.
func newDisk(sp *spec, m *model) (*core.MemBacking, error) {
	disk := core.NewMemBacking(1, int(int64(sp.blocks)*sp.blockSize))
	buf := make([]byte, sp.blockSize)
	for b := 0; b < sp.blocks; b++ {
		m.fill(buf, b, 0)
		if _, err := disk.WriteAt(buf, int64(b)*sp.blockSize); err != nil {
			return nil, fmt.Errorf("writing the dataset: %w", err)
		}
	}
	return disk, nil
}

// startStack starts the daemons and the client and opens every region.
// With rec set, every layer boundary is wrapped for tracing.
func startStack(sp *spec, disk *core.MemBacking, rec *recorder) (*stack, error) {
	trs, err := openTransports(sp)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		for i, tr := range trs {
			trs[i] = newTracedTransport(tr, rec, i >= 1 && i <= imdCount)
		}
	}
	st := &stack{disk: disk, backing: disk}
	st.mgr = manager.New(trs[0], manager.Config{})
	mgrAddr := st.mgr.Addr()
	for i := 1; i <= imdCount; i++ {
		st.imds = append(st.imds, imd.New(trs[i], imd.Config{
			ManagerAddr: mgrAddr,
			PoolSize:    sp.poolBytes,
			Epoch:       1,
		}))
	}
	if err := st.awaitHosts(); err != nil {
		st.close()
		return nil, err
	}
	st.cli = core.New(trs[imdCount+1], core.Config{ManagerAddr: mgrAddr, ClientID: 1})
	var dodo region.Dodo = st.cli
	if rec != nil {
		dodo = &tracedDodo{c: st.cli, rec: rec}
		st.backing = &tracedBacking{b: disk, rec: rec}
	}
	policy, err := region.NewPolicy(sp.policy)
	if err != nil {
		st.close()
		return nil, err
	}
	st.cache = region.NewCache(dodo, region.Config{
		Capacity:        sp.localBytes,
		Policy:          policy,
		PromoteOnAccess: true,
	})
	for b := 0; b < sp.blocks; b++ {
		fd, err := st.cache.Copen(sp.blockSize, st.backing, int64(b)*sp.blockSize)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("copen block %d: %w", b, err)
		}
		st.fds = append(st.fds, fd)
	}
	return st, nil
}

// awaitHosts waits until every imd has registered with the manager.
func (st *stack) awaitHosts() error {
	deadline := time.Now().Add(10 * time.Second)
	for st.mgr.Stats().IdleHosts < imdCount {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d imds registered", st.mgr.Stats().IdleHosts, imdCount)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// syncAndClose flushes and releases every region: after it, the backing
// store must hold every acknowledged write.
func (st *stack) syncAndClose() error {
	var errs []error
	for b, fd := range st.fds {
		if err := st.cache.Csync(fd); err != nil {
			errs = append(errs, fmt.Errorf("csync block %d: %w", b, err))
		}
		if err := st.cache.Cclose(fd); err != nil {
			errs = append(errs, fmt.Errorf("cclose block %d: %w", b, err))
		}
	}
	st.fds = nil
	return errors.Join(errs...)
}

// close stops everything the stack started and waits for it to exit.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.cache != nil {
		st.cache.Close()
	}
	if st.cli != nil {
		_ = st.cli.Close() // teardown: nothing is left to report to
	}
	for _, d := range st.imds {
		_ = d.Close()
	}
	_ = st.mgr.Close()
}
