package thumb

import (
	"encoding/binary"
	"fmt"
)

// Memory map of the embedded system (Fig. 1a): a 64 kB program memory at
// the code base and a 64 kB data memory in the SRAM region, each backed by
// one of the paper's eDRAM macros.
const (
	ProgramBase = 0x00000000
	ProgramSize = 64 * 1024
	DataBase    = 0x20000000
	DataSize    = 64 * 1024
	// StackTop is the initial SP: the top of the data memory.
	StackTop = DataBase + DataSize
)

// AccessStats counts memory traffic, the quantity the paper extracts from
// RTL waveforms to drive eDRAM energy analysis (Sec. III-B, Step 4b).
type AccessStats struct {
	// ProgramReads counts instruction fetches and literal-pool loads from
	// the program memory.
	ProgramReads uint64
	// DataReads and DataWrites count data-memory accesses.
	DataReads, DataWrites uint64
}

// Memory is the two-macro memory system.
type Memory struct {
	prog [ProgramSize]byte
	data [DataSize]byte
	// decoded holds one op per halfword of the loaded program image.
	// Program memory is read-only to the CPU (stores to it fault), so the
	// table stays valid until the next LoadProgram.
	decoded []op
	Stats   AccessStats
}

// NewMemory returns a zeroed memory system.
func NewMemory() *Memory { return &Memory{} }

// LoadProgram copies an assembled binary into program memory at offset 0.
func (m *Memory) LoadProgram(p *Program) error {
	b := p.Bytes()
	if len(b) > ProgramSize {
		return fmt.Errorf("thumb: program of %d bytes exceeds %d", len(b), ProgramSize)
	}
	copy(m.prog[:], b)
	m.decoded = make([]op, len(p.Halfwords))
	for i, h := range p.Halfwords {
		m.decoded[i] = decode(h)
	}
	return nil
}

// region resolves an address to its backing slice and offset.
func (m *Memory) region(addr uint32) ([]byte, uint32, error) {
	switch {
	case addr >= ProgramBase && addr < ProgramBase+ProgramSize:
		return m.prog[:], addr - ProgramBase, nil
	case addr >= DataBase && addr < DataBase+DataSize:
		return m.data[:], addr - DataBase, nil
	default:
		return nil, 0, fmt.Errorf("thumb: access to unmapped address %#x", addr)
	}
}

// count records an access against the right macro's counters.
func (m *Memory) count(addr uint32, write bool) {
	if addr < ProgramBase+ProgramSize {
		m.Stats.ProgramReads++
		return
	}
	if write {
		m.Stats.DataWrites++
	} else {
		m.Stats.DataReads++
	}
}

// fetch16 reads an instruction halfword; fetches are counted as program
// reads by the CPU (one per instruction) rather than here, so the BL
// double-fetch is attributed correctly.
func (m *Memory) fetch16(addr uint32) (uint16, error) {
	if addr%2 != 0 {
		return 0, fmt.Errorf("thumb: misaligned fetch at %#x", addr)
	}
	buf, off, err := m.region(addr)
	if err != nil {
		return 0, err
	}
	return uint16(buf[off]) | uint16(buf[off+1])<<8, nil
}

// Read32 performs a data-side word load.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if off := addr - DataBase; off < DataSize && addr%4 == 0 {
		m.Stats.DataReads++
		return binary.LittleEndian.Uint32(m.data[off:]), nil
	}
	if addr%4 != 0 {
		return 0, fmt.Errorf("thumb: misaligned word load at %#x", addr)
	}
	buf, off, err := m.region(addr)
	if err != nil {
		return 0, err
	}
	m.count(addr, false)
	return uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24, nil
}

// Read16 performs a data-side halfword load.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	if addr%2 != 0 {
		return 0, fmt.Errorf("thumb: misaligned halfword load at %#x", addr)
	}
	buf, off, err := m.region(addr)
	if err != nil {
		return 0, err
	}
	m.count(addr, false)
	return uint16(buf[off]) | uint16(buf[off+1])<<8, nil
}

// Read8 performs a data-side byte load.
func (m *Memory) Read8(addr uint32) (byte, error) {
	buf, off, err := m.region(addr)
	if err != nil {
		return 0, err
	}
	m.count(addr, false)
	return buf[off], nil
}

// Write32 performs a word store.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if off := addr - DataBase; off < DataSize && addr%4 == 0 {
		m.Stats.DataWrites++
		binary.LittleEndian.PutUint32(m.data[off:], v)
		return nil
	}
	if addr%4 != 0 {
		return fmt.Errorf("thumb: misaligned word store at %#x", addr)
	}
	buf, off, err := m.region(addr)
	if err != nil {
		return err
	}
	if addr < DataBase {
		return fmt.Errorf("thumb: store to program memory at %#x", addr)
	}
	m.count(addr, true)
	buf[off] = byte(v)
	buf[off+1] = byte(v >> 8)
	buf[off+2] = byte(v >> 16)
	buf[off+3] = byte(v >> 24)
	return nil
}

// Write16 performs a halfword store.
func (m *Memory) Write16(addr uint32, v uint16) error {
	if addr%2 != 0 {
		return fmt.Errorf("thumb: misaligned halfword store at %#x", addr)
	}
	buf, off, err := m.region(addr)
	if err != nil {
		return err
	}
	if addr < DataBase {
		return fmt.Errorf("thumb: store to program memory at %#x", addr)
	}
	m.count(addr, true)
	buf[off] = byte(v)
	buf[off+1] = byte(v >> 8)
	return nil
}

// Write8 performs a byte store.
func (m *Memory) Write8(addr uint32, v byte) error {
	buf, off, err := m.region(addr)
	if err != nil {
		return err
	}
	if addr < DataBase {
		return fmt.Errorf("thumb: store to program memory at %#x", addr)
	}
	m.count(addr, true)
	buf[off] = v
	return nil
}
