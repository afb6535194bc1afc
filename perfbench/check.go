package main

import (
	"encoding/binary"
	"fmt"
)

// model is the benchmark's own account of what every block must hold,
// kept apart from the program under test: a block's bytes are a pure
// function of (seed, block, write version), and the write record is one
// version number per block. No copy of the dataset is held, so the
// check adds nothing to the heap the collector paces against.
type model struct {
	seed      uint64
	blockSize int64
	// version is the write record: how many acknowledged Cwrites each
	// block has taken.
	version []uint32

	// flipBlock and dropWrites mutate the check itself so tests can
	// prove it catches a wrong byte and a lost write: the expected
	// bytes of flipBlock differ in one bit, and the next dropWrites
	// writes are not recorded. Both are off (-1 and 0) in real runs.
	flipBlock  int
	dropWrites int
}

func newModel(seed int64, blocks int, blockSize int64) *model {
	return &model{
		seed:      uint64(seed),
		blockSize: blockSize,
		version:   make([]uint32, blocks),
		flipBlock: -1,
	}
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// base seeds the word stream of one (block, version).
func (m *model) base(block int, version uint32) uint64 {
	return mix(m.seed*0x9e3779b97f4a7c15 ^ uint64(block)<<24 ^ uint64(version))
}

// word returns the i-th 8-byte word of a block's contents.
func word(base uint64, i int) uint64 {
	return mix(base + uint64(i)*0x9e3779b97f4a7c15)
}

// fill writes the contents of (block, version) into buf, a prefix of
// the block whose length is a multiple of 8.
func (m *model) fill(buf []byte, block int, version uint32) {
	b := m.base(block, version)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], word(b, i/8))
	}
}

// prepareWrite fills buf with the next version of block and records the
// write. It returns the version written.
func (m *model) prepareWrite(buf []byte, block int) uint32 {
	v := m.version[block] + 1
	m.fill(buf, block, v)
	if m.dropWrites > 0 {
		m.dropWrites--
	} else {
		m.version[block] = v
	}
	return v
}

// matches reports whether buf (a prefix of block starting at offset 0)
// holds the bytes the write record says it must.
func (m *model) matches(buf []byte, block int) bool {
	if len(buf)%8 != 0 {
		return false
	}
	b := m.base(block, m.version[block])
	for i := 0; i < len(buf); i += 8 {
		want := word(b, i/8)
		if block == m.flipBlock && i == 0 {
			want ^= 1
		}
		if binary.LittleEndian.Uint64(buf[i:]) != want {
			return false
		}
	}
	return true
}

// reader is the read side of a backing store.
type reader interface {
	ReadAt(p []byte, off int64) (int, error)
}

// verifyStore compares every block of the backing store with the write
// record. Disk is the source of truth: after the final Csync and
// Cclose, every acknowledged write must be there.
func (m *model) verifyStore(st reader) error {
	buf := make([]byte, m.blockSize)
	bad := 0
	first := -1
	for blk := range m.version {
		if _, err := st.ReadAt(buf, int64(blk)*m.blockSize); err != nil {
			return fmt.Errorf("reading block %d of the backing store: %w", blk, err)
		}
		if !m.matches(buf, blk) {
			if first < 0 {
				first = blk
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("backing store: %d of %d blocks differ from the write record (first: block %d)", bad, len(m.version), first)
	}
	return nil
}
