package main

import (
	"fmt"
	"math/rand"
)

// op is one application request: a Cread or a Cwrite of the first size
// bytes of a block (every block is one region).
type op struct {
	block int32
	size  int32
	write bool
}

// spec describes one workload: the make-up of its input, how the stack
// is sized for it, and the request stream it drives. Each workload runs
// a closed loop: one application goroutine, one operation in flight.
type spec struct {
	name string
	why  string
	// udp selects kernel UDP loopback; otherwise the in-process fabric
	// with 1500-byte (U-Net-sized) frames.
	udp        bool
	blockSize  int64
	blocks     int
	localBytes int64
	// poolBytes is each of the four imds' pool.
	poolBytes uint64
	policy    string
	// inputs draws the request streams from the seed: the setup pass
	// that leaves remote memory populated, and roundsPerRun rounds of
	// the timed phase. Every run attempts whole rounds, so per-round
	// counts repeat from run to run.
	inputs func(rng *rand.Rand) (populate []op, rounds [][]op)
	// heapRounds is the fixed amount of work (about two seconds of it)
	// after which live_heap_mb is taken. The program keeps per-transfer
	// state for a fixed time after each transfer, so a heap taken after
	// a fixed time rather than a fixed amount of work would follow the
	// run's speed.
	heapRounds int
}

// imdCount is the number of idle-memory daemons in every workload.
const imdCount = 4

// roundsPerRun is how many distinct rounds are drawn before the clock
// starts; a run that needs more cycles through them.
const roundsPerRun = 8

const (
	kb = 1 << 10
	mb = 1 << 20
)

var specs = []*spec{dmineScan(), hotcoldRWUDP(), luSlabScan()}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fullReads reads every block once, in the given order.
func fullReads(order []int, blockSize int64) []op {
	ops := make([]op, len(order))
	for i, b := range order {
		ops[i] = op{block: int32(b), size: int32(blockSize)}
	}
	return ops
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// dmineScan is dmine's Apriori passes (§5.2.1): every pass reads each
// 128 KB block once in a seeded permuted order. First-in keeps the
// first quarter of the dataset local; the rest is read through from
// remote memory over the 1500-byte fabric.
func dmineScan() *spec {
	const blocks = 192
	const blockSize = 128 * kb
	return &spec{
		name:       "dmine-scan",
		why:        "dmine passes: read-only 128 KB block scans, 3/4 served from remote memory over 1500-byte frames, so bulk, transport and imd per-packet cost dominate",
		blockSize:  blockSize,
		blocks:     blocks,
		localBytes: blocks / 4 * blockSize,
		poolBytes:  6 * mb,
		policy:     "first-in",
		heapRounds: 16,
		inputs: func(rng *rand.Rand) ([]op, [][]op) {
			rounds := make([][]op, roundsPerRun)
			for i := range rounds {
				rounds[i] = fullReads(rng.Perm(blocks), blockSize)
			}
			return fullReads(identity(blocks), blockSize), rounds
		},
	}
}

// hotcoldRWUDP is Figure 8's hot/cold pattern over kernel UDP: 80% of
// requests go to the hottest 20% of the blocks, 20% of requests are
// whole-block writes, and an LRU cache the size of the hot set promotes
// on access.
func hotcoldRWUDP() *spec {
	const blocks = 1024
	const blockSize = 8 * kb
	const hot = blocks / 5
	const perRound = 4000
	return &spec{
		name:       "hotcold-rw-udp",
		why:        "Figure 8 hot/cold: 8 KB requests, 20% writes, LRU cache the size of the hot set over UDP loopback; region layer and one-datagram paths dominate",
		udp:        true,
		blockSize:  blockSize,
		blocks:     blocks,
		localBytes: hot * blockSize,
		poolBytes:  4 * mb,
		policy:     "lru",
		heapRounds: 4,
		inputs: func(rng *rand.Rand) ([]op, [][]op) {
			// Two setup passes in one seeded order leave every block
			// with a remote copy: a block gets its copy the first time
			// it is evicted, and the second pass evicts the first
			// pass's final residents. The order's first fifth is the
			// hot set.
			order := rng.Perm(blocks)
			hotSet := order[:hot]
			coldSet := order[hot:]
			pass := fullReads(order, blockSize)
			populate := append(pass, pass...)
			rounds := make([][]op, roundsPerRun)
			for r := range rounds {
				// Exact shares per round: 3200 hot and 800 cold
				// requests, 800 writes, in seeded order.
				ops := make([]op, perRound)
				for i, k := range rng.Perm(perRound) {
					var b int
					if k < perRound*4/5 {
						b = hotSet[rng.Intn(len(hotSet))]
					} else {
						b = coldSet[rng.Intn(len(coldSet))]
					}
					ops[i] = op{block: int32(b), size: blockSize, write: k%5 == 0}
				}
				rounds[r] = ops
			}
			return populate, rounds
		},
	}
}

// Scaled-down lu (§5.2.1): a 2048-row matrix of doubles in 64-column
// slabs, each slab striped over two files in 512 KB stripes.
const (
	luRows     = 2048
	luSlabCols = 64
	luStripes  = 2
	luSlabs    = luRows / luSlabCols
	luElem     = 8
	luStripe   = luRows / luStripes * luSlabCols * luElem // 512 KB
)

// luSlabScan is lu's left-looking triangle scan. Factoring slab k reads,
// for every j <= k, the rows of slab j at and below its diagonal from
// each stripe (512 KB down to 16 KB), then writes slab k back in whole
// 512 KB stripes. First-in keeps the first quarter of the matrix local.
// The trace is lu's and does not depend on the seed; the matrix bytes
// do.
func luSlabScan() *spec {
	const blocks = luSlabs * luStripes
	return &spec{
		name:       "lu-slabs",
		why:        "lu triangle scan: 16-512 KB striped slab reads and 512 KB write-backs over 1500-byte frames; the only multi-frame remote writes",
		blockSize:  luStripe,
		blocks:     blocks,
		localBytes: blocks / 4 * luStripe,
		poolBytes:  8 * mb,
		policy:     "first-in",
		heapRounds: 2,
		inputs: func(*rand.Rand) ([]op, [][]op) {
			var ops []op
			for k := 0; k < luSlabs; k++ {
				for j := 0; j <= k; j++ {
					rows := (luRows - j*luSlabCols) / luStripes
					for f := 0; f < luStripes; f++ {
						ops = append(ops, op{block: int32(j*luStripes + f), size: int32(rows * luSlabCols * luElem)})
					}
				}
				for f := 0; f < luStripes; f++ {
					ops = append(ops, op{block: int32(k*luStripes + f), size: luStripe, write: true})
				}
			}
			return fullReads(identity(blocks), luStripe), [][]op{ops}
		},
	}
}
