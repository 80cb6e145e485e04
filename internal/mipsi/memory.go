// Package mipsi is the laboratory's MIPSI: an instruction-level emulator
// for the MIPS R3000 subset of internal/mips, structured — like the
// original — as the initial stages of a CPU pipeline performed explicitly
// in software: fetch, decode, execute, with every guest memory access
// translated through in-core simulated page tables.
//
// The package provides two execution modes over the same Machine:
//
//   - Interp is MIPSI proper: each guest instruction is one virtual
//     command; fetch/decode and execute costs are accounted through an
//     atom.Probe, and guest memory translations are charged to the
//     "memmodel" region (§3.3 of the paper).
//
//   - Native executes the binary directly: each guest instruction is
//     exactly one native instruction event.  This is how the compiled-C
//     baselines of Table 1, the C des row of Table 2, and the native SPEC
//     runs of Figure 3 are produced.
//
// The host decodes the text segment once, when NewMachine loads it, into
// a table both modes step through.  A store into text (SB, SH, SW or the
// read syscall) makes the words it touches decode again at their next
// fetch, and a PC outside the table is fetched from memory and decoded
// each time.  The simulation does not see the table: Interp charges the
// simulated fetch, translation and decode of every word it executes, as
// the original MIPSI paid them.
package mipsi

import "fmt"

// Page geometry of the simulated page tables (two-level, 4 KB pages —
// the R3000's natural size).
const (
	pageBits   = 12
	pageSize   = 1 << pageBits
	level1Bits = 10
	level2Bits = 32 - pageBits - level1Bits
)

type page [pageSize]byte

// Memory is the guest address space: a two-level page table over 4 KB
// pages, allocated on demand.
type Memory struct {
	root [1 << level1Bits]*[1 << level2Bits]*page

	// Translations counts page-table walks, for instrumentation.
	Translations uint64
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// translate walks the page tables and returns the page for vaddr,
// allocating if alloc is set.
func (m *Memory) translate(vaddr uint32, alloc bool) (*page, error) {
	m.Translations++
	i1 := vaddr >> (32 - level1Bits)
	i2 := vaddr >> pageBits & (1<<level2Bits - 1)
	l2 := m.root[i1]
	if l2 == nil {
		if !alloc {
			return nil, fmt.Errorf("mipsi: unmapped address %#x", vaddr)
		}
		l2 = new([1 << level2Bits]*page)
		m.root[i1] = l2
	}
	pg := l2[i2]
	if pg == nil {
		if !alloc {
			return nil, fmt.Errorf("mipsi: unmapped address %#x", vaddr)
		}
		pg = new(page)
		l2[i2] = pg
	}
	return pg, nil
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(vaddr uint32) (byte, error) {
	pg, err := m.translate(vaddr, false)
	if err != nil {
		return 0, err
	}
	return pg[vaddr&(pageSize-1)], nil
}

// LoadHalf reads a little-endian halfword.
func (m *Memory) LoadHalf(vaddr uint32) (uint16, error) {
	b0, err := m.LoadByte(vaddr)
	if err != nil {
		return 0, err
	}
	b1, err := m.LoadByte(vaddr + 1)
	if err != nil {
		return 0, err
	}
	return uint16(b0) | uint16(b1)<<8, nil
}

// LoadWord reads a little-endian word.
func (m *Memory) LoadWord(vaddr uint32) (uint32, error) {
	pg, err := m.translate(vaddr, false)
	if err != nil {
		return 0, err
	}
	off := vaddr & (pageSize - 1)
	if off+4 <= pageSize {
		return uint32(pg[off]) | uint32(pg[off+1])<<8 | uint32(pg[off+2])<<16 | uint32(pg[off+3])<<24, nil
	}
	// Straddles a page.
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := m.LoadByte(vaddr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// StoreByte writes one byte, allocating the page if needed.
func (m *Memory) StoreByte(vaddr uint32, v byte) error {
	pg, err := m.translate(vaddr, true)
	if err != nil {
		return err
	}
	pg[vaddr&(pageSize-1)] = v
	return nil
}

// StoreHalf writes a little-endian halfword.
func (m *Memory) StoreHalf(vaddr uint32, v uint16) error {
	if err := m.StoreByte(vaddr, byte(v)); err != nil {
		return err
	}
	return m.StoreByte(vaddr+1, byte(v>>8))
}

// StoreWord writes a little-endian word.
func (m *Memory) StoreWord(vaddr uint32, v uint32) error {
	pg, err := m.translate(vaddr, true)
	if err != nil {
		return err
	}
	off := vaddr & (pageSize - 1)
	if off+4 <= pageSize {
		pg[off] = byte(v)
		pg[off+1] = byte(v >> 8)
		pg[off+2] = byte(v >> 16)
		pg[off+3] = byte(v >> 24)
		return nil
	}
	for i := uint32(0); i < 4; i++ {
		if err := m.StoreByte(vaddr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// WriteBytes copies b into guest memory at vaddr.
func (m *Memory) WriteBytes(vaddr uint32, b []byte) error {
	for i, c := range b {
		if err := m.StoreByte(vaddr+uint32(i), c); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes copies n bytes out of guest memory.
func (m *Memory) ReadBytes(vaddr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		b, err := m.LoadByte(vaddr + uint32(i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// ReadCString reads a NUL-terminated string (bounded at 4096 bytes).
func (m *Memory) ReadCString(vaddr uint32) (string, error) {
	var out []byte
	for i := 0; i < 4096; i++ {
		b, err := m.LoadByte(vaddr + uint32(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("mipsi: unterminated string at %#x", vaddr)
}
