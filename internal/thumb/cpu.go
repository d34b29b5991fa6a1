package thumb

import (
	"errors"
	"fmt"
	"math/bits"
)

// CPU is a Cortex-M0-class ARMv6-M Thumb core with cycle-accurate timing:
// single-cycle data processing and multiply, two-cycle loads and stores,
// three-cycle taken branches (two-stage refill plus issue), and
// four-cycle BL — the timing table of the Cortex-M0 TRM.
type CPU struct {
	// R holds the register file; R[13] is SP, R[14] LR, R[15] PC.
	R [16]uint32
	// Flags.
	N, Z, C, V bool
	// Mem is the memory system.
	Mem *Memory
	// Cycles and Instructions count execution progress.
	Cycles       uint64
	Instructions uint64
	// Halted is set by BKPT.
	Halted bool
	// HaltCode is the BKPT immediate.
	HaltCode uint8
}

// NewCPU returns a CPU reset to the program base with a full stack.
func NewCPU(mem *Memory) *CPU {
	c := &CPU{Mem: mem}
	c.R[13] = StackTop
	c.R[15] = ProgramBase
	return c
}

// ErrCycleBudget is returned by Run when the cycle budget is exhausted
// before the program halts.
var ErrCycleBudget = errors.New("thumb: cycle budget exhausted")

// Run executes until BKPT or until the cycle budget is exceeded.
func (c *CPU) Run(maxCycles uint64) error {
	if c.Halted {
		return nil
	}
	if c.Cycles >= maxCycles {
		return ErrCycleBudget
	}
	return c.exec(maxCycles, false)
}

// Step executes one instruction.
func (c *CPU) Step() error { return c.exec(0, true) }

// exec is the simulator loop behind Run and Step: it executes one
// instruction, then, unless once is set, continues until BKPT or the
// cycle budget. A PC inside the loaded image runs its predecoded op; any
// other PC fetches and decodes its halfword first.
func (c *CPU) exec(maxCycles uint64, once bool) error {
	mem := c.Mem
	for {
		pc := c.R[15]
		var in *op
		if i := (pc - ProgramBase) / 2; pc%2 == 0 && i < uint32(len(mem.decoded)) {
			in = &mem.decoded[i]
		} else {
			instr, err := mem.fetch16(pc)
			if err != nil {
				return err
			}
			d := decode(instr)
			in = &d
		}
		mem.Stats.ProgramReads++
		c.R[15] = pc + 2
		c.Instructions++

		switch in.kind {
		case opLSLImm: // imm 0 is MOVS, C unchanged
			rm := c.R[in.rm]
			res := rm
			if in.imm > 0 {
				c.C = rm&(1<<(32-in.imm)) != 0
				res = rm << in.imm
			}
			c.R[in.rd] = res
			c.setNZ(res)
			c.Cycles++
		case opLSRImm: // imm 0 means 32
			rm := c.R[in.rm]
			var res uint32
			if in.imm == 0 {
				c.C = rm&0x80000000 != 0
			} else {
				c.C = rm&(1<<(in.imm-1)) != 0
				res = rm >> in.imm
			}
			c.R[in.rd] = res
			c.setNZ(res)
			c.Cycles++
		case opASRImm: // imm 0 means 32
			rm := c.R[in.rm]
			var res uint32
			if in.imm == 0 {
				c.C = rm&0x80000000 != 0
				res = uint32(int32(rm) >> 31)
			} else {
				c.C = rm&(1<<(in.imm-1)) != 0
				res = uint32(int32(rm) >> in.imm)
			}
			c.R[in.rd] = res
			c.setNZ(res)
			c.Cycles++
		case opADDReg:
			c.R[in.rd] = c.addFlags(c.R[in.rn], c.R[in.rm], false)
			c.Cycles++
		case opSUBReg:
			c.R[in.rd] = c.addFlags(c.R[in.rn], ^c.R[in.rm], true)
			c.Cycles++
		case opADDImm:
			c.R[in.rd] = c.addFlags(c.R[in.rn], in.imm, false)
			c.Cycles++
		case opSUBImm:
			c.R[in.rd] = c.addFlags(c.R[in.rn], ^in.imm, true)
			c.Cycles++
		case opMOVImm:
			c.R[in.rd] = in.imm
			c.setNZ(in.imm)
			c.Cycles++
		case opCMPImm:
			c.addFlags(c.R[in.rd], ^in.imm, true)
			c.Cycles++

		case opAND:
			c.setLogic(in.rd, c.R[in.rd]&c.R[in.rm])
		case opEOR:
			c.setLogic(in.rd, c.R[in.rd]^c.R[in.rm])
		case opLSLReg:
			rdv, sh := c.R[in.rd], c.R[in.rm]&0xFF
			res := rdv
			if sh > 0 {
				if sh < 32 {
					c.C = rdv&(1<<(32-sh)) != 0
					res = rdv << sh
				} else if sh == 32 {
					c.C = rdv&1 != 0
					res = 0
				} else {
					c.C = false
					res = 0
				}
			}
			c.setLogic(in.rd, res)
		case opLSRReg:
			rdv, sh := c.R[in.rd], c.R[in.rm]&0xFF
			res := rdv
			if sh > 0 {
				if sh < 32 {
					c.C = rdv&(1<<(sh-1)) != 0
					res = rdv >> sh
				} else if sh == 32 {
					c.C = rdv&0x80000000 != 0
					res = 0
				} else {
					c.C = false
					res = 0
				}
			}
			c.setLogic(in.rd, res)
		case opASRReg:
			rdv, sh := c.R[in.rd], c.R[in.rm]&0xFF
			res := rdv
			if sh > 0 {
				if sh < 32 {
					c.C = rdv&(1<<(sh-1)) != 0
					res = uint32(int32(rdv) >> sh)
				} else {
					c.C = rdv&0x80000000 != 0
					res = uint32(int32(rdv) >> 31)
				}
			}
			c.setLogic(in.rd, res)
		case opADC:
			c.R[in.rd] = c.addFlags(c.R[in.rd], c.R[in.rm], c.C)
			c.Cycles++
		case opSBC:
			c.R[in.rd] = c.addFlags(c.R[in.rd], ^c.R[in.rm], c.C)
			c.Cycles++
		case opROR:
			rdv, sh := c.R[in.rd], c.R[in.rm]&0xFF
			res := rdv
			if sh > 0 {
				sh &= 31
				if sh == 0 {
					c.C = rdv&0x80000000 != 0
				} else {
					res = rdv>>sh | rdv<<(32-sh)
					c.C = res&0x80000000 != 0
				}
			}
			c.setLogic(in.rd, res)
		case opTST:
			c.setNZ(c.R[in.rd] & c.R[in.rm])
			c.Cycles++
		case opNEG:
			c.R[in.rd] = c.addFlags(^c.R[in.rm], 0, true)
			c.Cycles++
		case opCMPReg:
			c.addFlags(c.R[in.rd], ^c.R[in.rm], true)
			c.Cycles++
		case opCMN:
			c.addFlags(c.R[in.rd], c.R[in.rm], false)
			c.Cycles++
		case opORR:
			c.setLogic(in.rd, c.R[in.rd]|c.R[in.rm])
		case opMUL: // single-cycle multiplier configuration
			c.setLogic(in.rd, c.R[in.rd]*c.R[in.rm])
		case opBIC:
			c.setLogic(in.rd, c.R[in.rd]&^c.R[in.rm])
		case opMVN:
			c.setLogic(in.rd, ^c.R[in.rm])

		case opADDHi: // no flags
			c.R[in.rd] = c.hiReg(in.rd) + c.hiReg(in.rm)
			c.hiRegWritten(in.rd)
		case opCMPHi:
			c.addFlags(c.hiReg(in.rd), ^c.hiReg(in.rm), true)
			c.Cycles++
		case opMOVHi: // no flags
			c.R[in.rd] = c.hiReg(in.rm)
			c.hiRegWritten(in.rd)
		case opBX:
			c.R[15] = c.R[in.rm] &^ 1
			c.Cycles += 3
		case opBLX:
			target := c.R[in.rm]
			c.R[14] = c.R[15] | 1
			c.R[15] = target &^ 1
			c.Cycles += 3

		case opLDRLit:
			v, err := mem.Read32((pc+4)&^3 + in.imm)
			if err != nil {
				return err
			}
			c.R[in.rd] = v
			c.Cycles += 2

		case opSTRReg:
			c.Cycles += 2
			if err := mem.Write32(c.R[in.rn]+c.R[in.rm], c.R[in.rd]); err != nil {
				return err
			}
		case opSTRHReg:
			c.Cycles += 2
			if err := mem.Write16(c.R[in.rn]+c.R[in.rm], uint16(c.R[in.rd])); err != nil {
				return err
			}
		case opSTRBReg:
			c.Cycles += 2
			if err := mem.Write8(c.R[in.rn]+c.R[in.rm], byte(c.R[in.rd])); err != nil {
				return err
			}
		case opLDRSBReg:
			c.Cycles += 2
			v, err := mem.Read8(c.R[in.rn] + c.R[in.rm])
			if err != nil {
				return err
			}
			c.R[in.rd] = uint32(int32(int8(v)))
		case opLDRReg:
			c.Cycles += 2
			v, err := mem.Read32(c.R[in.rn] + c.R[in.rm])
			if err != nil {
				return err
			}
			c.R[in.rd] = v
		case opLDRHReg:
			c.Cycles += 2
			v, err := mem.Read16(c.R[in.rn] + c.R[in.rm])
			if err != nil {
				return err
			}
			c.R[in.rd] = uint32(v)
		case opLDRBReg:
			c.Cycles += 2
			v, err := mem.Read8(c.R[in.rn] + c.R[in.rm])
			if err != nil {
				return err
			}
			c.R[in.rd] = uint32(v)
		case opLDRSHReg:
			c.Cycles += 2
			v, err := mem.Read16(c.R[in.rn] + c.R[in.rm])
			if err != nil {
				return err
			}
			c.R[in.rd] = uint32(int32(int16(v)))

		case opSTRImm:
			c.Cycles += 2
			if err := mem.Write32(c.R[in.rn]+in.imm, c.R[in.rd]); err != nil {
				return err
			}
		case opLDRImm:
			c.Cycles += 2
			v, err := mem.Read32(c.R[in.rn] + in.imm)
			if err != nil {
				return err
			}
			c.R[in.rd] = v
		case opSTRBImm:
			c.Cycles += 2
			if err := mem.Write8(c.R[in.rn]+in.imm, byte(c.R[in.rd])); err != nil {
				return err
			}
		case opLDRBImm:
			c.Cycles += 2
			v, err := mem.Read8(c.R[in.rn] + in.imm)
			if err != nil {
				return err
			}
			c.R[in.rd] = uint32(v)
		case opSTRHImm:
			c.Cycles += 2
			if err := mem.Write16(c.R[in.rn]+in.imm, uint16(c.R[in.rd])); err != nil {
				return err
			}
		case opLDRHImm:
			c.Cycles += 2
			v, err := mem.Read16(c.R[in.rn] + in.imm)
			if err != nil {
				return err
			}
			c.R[in.rd] = uint32(v)

		case opSTRSP:
			c.Cycles += 2
			if err := mem.Write32(c.R[13]+in.imm, c.R[in.rd]); err != nil {
				return err
			}
		case opLDRSP:
			c.Cycles += 2
			v, err := mem.Read32(c.R[13] + in.imm)
			if err != nil {
				return err
			}
			c.R[in.rd] = v

		case opADR:
			c.R[in.rd] = (pc+4)&^3 + in.imm
			c.Cycles++
		case opADDRdSP:
			c.R[in.rd] = c.R[13] + in.imm
			c.Cycles++
		case opADDSP:
			c.R[13] += in.imm
			c.Cycles++
		case opSUBSP:
			c.R[13] -= in.imm
			c.Cycles++
		case opPUSH:
			if err := c.push(uint16(in.imm)); err != nil {
				return err
			}
		case opPOP:
			if err := c.pop(uint16(in.imm)); err != nil {
				return err
			}
		case opBKPT:
			c.Halted = true
			c.HaltCode = uint8(in.imm)
			c.Cycles++
		case opNOP:
			c.Cycles++

		case opSXTH:
			c.R[in.rd] = uint32(int32(int16(c.R[in.rm])))
			c.Cycles++
		case opSXTB:
			c.R[in.rd] = uint32(int32(int8(c.R[in.rm])))
			c.Cycles++
		case opUXTH:
			c.R[in.rd] = c.R[in.rm] & 0xFFFF
			c.Cycles++
		case opUXTB:
			c.R[in.rd] = c.R[in.rm] & 0xFF
			c.Cycles++
		case opREV:
			rm := c.R[in.rm]
			c.R[in.rd] = rm<<24 | rm>>8&0xFF00 | rm<<8&0xFF0000 | rm>>24
			c.Cycles++
		case opREV16:
			rm := c.R[in.rm]
			c.R[in.rd] = rm<<8&0xFF00FF00 | rm>>8&0x00FF00FF
			c.Cycles++
		case opREVSH:
			rm := c.R[in.rm]
			h := rm<<8&0xFF00 | rm>>8&0xFF
			c.R[in.rd] = uint32(int32(int16(h)))
			c.Cycles++

		case opSTM, opLDM:
			if err := c.transferMultiple(in.rn, uint16(in.imm), in.kind == opLDM); err != nil {
				return err
			}

		case opBCond:
			if c.condition(in.rd) {
				c.R[15] = pc + 4 + in.imm
				c.Cycles += 3
			} else {
				c.Cycles++
			}
		case opB:
			c.R[15] = pc + 4 + in.imm
			c.Cycles += 3
		case opBL:
			lo, err := mem.fetch16(pc + 2)
			if err != nil {
				return err
			}
			if lo>>11 != 0b11111 {
				return fmt.Errorf("thumb: broken BL pair at %#x", pc)
			}
			mem.Stats.ProgramReads++
			c.R[14] = (pc + 4) | 1
			c.R[15] = pc + 4 + (in.imm | uint32(lo&0x7FF)<<1)
			c.Cycles += 4

		case opSVC:
			return fmt.Errorf("thumb: SVC unsupported at %#x", pc)
		case opEmptyList:
			return fmt.Errorf("thumb: empty register list in LDM/STM %#04x", in.instr)
		case opUndefinedMisc:
			return fmt.Errorf("thumb: undefined misc instruction %#04x", in.instr)
		default:
			return fmt.Errorf("thumb: undefined instruction %#04x at %#x", in.instr, pc)
		}
		if once || c.Halted {
			return nil
		}
		if c.Cycles >= maxCycles {
			return ErrCycleBudget
		}
	}
}

// setNZ updates the N and Z flags from a result.
func (c *CPU) setNZ(v uint32) {
	c.N = v&0x80000000 != 0
	c.Z = v == 0
}

// setLogic completes a single-cycle register ALU operation that writes rd
// and sets N and Z.
func (c *CPU) setLogic(rd uint8, res uint32) {
	c.R[rd] = res
	c.setNZ(res)
	c.Cycles++
}

// addFlags is the ARM AddWithCarry primitive: it returns a + b + carry
// and sets all four flags from the result.
func (c *CPU) addFlags(a, b uint32, carry bool) uint32 {
	sum := uint64(a) + uint64(b)
	if carry {
		sum++
	}
	r := uint32(sum)
	c.setNZ(r)
	c.C = sum > 0xFFFFFFFF
	c.V = (a^r)&(b^r)&0x80000000 != 0
	return r
}

// hiReg reads a register operand of a high-register instruction: PC reads
// as the instruction's address + 4, and R[15] already holds address + 2.
func (c *CPU) hiReg(r uint8) uint32 {
	if r == 15 {
		return c.R[15] + 2
	}
	return c.R[r]
}

// hiRegWritten finishes a high-register ADD or MOV: a write to PC is a
// branch (bit 0 cleared, pipeline refilled).
func (c *CPU) hiRegWritten(rd uint8) {
	if rd == 15 {
		c.R[15] &^= 1
		c.Cycles += 3
	} else {
		c.Cycles++
	}
}

// push stores the low registers in list, then LR if bit 8 is set, below SP.
func (c *CPU) push(list uint16) error {
	n := bits.OnesCount16(list)
	sp := c.R[13] - 4*uint32(n)
	c.R[13] = sp
	addr := sp
	for r := 0; r < 8; r++ {
		if list&(1<<r) != 0 {
			if err := c.Mem.Write32(addr, c.R[r]); err != nil {
				return err
			}
			addr += 4
		}
	}
	if list&0x100 != 0 {
		if err := c.Mem.Write32(addr, c.R[14]); err != nil {
			return err
		}
	}
	c.Cycles += 1 + uint64(n)
	return nil
}

// pop loads the low registers in list, then PC if bit 8 is set, from SP.
func (c *CPU) pop(list uint16) error {
	addr := c.R[13]
	for r := 0; r < 8; r++ {
		if list&(1<<r) != 0 {
			v, err := c.Mem.Read32(addr)
			if err != nil {
				return err
			}
			c.R[r] = v
			addr += 4
		}
	}
	if list&0x100 != 0 {
		v, err := c.Mem.Read32(addr)
		if err != nil {
			return err
		}
		c.R[15] = v &^ 1
		addr += 4
		c.Cycles += 4 + uint64(bits.OnesCount16(list&0xFF))
	} else {
		c.Cycles += 1 + uint64(bits.OnesCount16(list))
	}
	c.R[13] = addr
	return nil
}

// transferMultiple handles LDMIA/STMIA (load/store multiple, increment
// after) of a non-empty low-register list.
func (c *CPU) transferMultiple(rn uint8, list uint16, load bool) error {
	addr := c.R[rn]
	for r := 0; r < 8; r++ {
		if list&(1<<r) == 0 {
			continue
		}
		if load {
			v, err := c.Mem.Read32(addr)
			if err != nil {
				return err
			}
			c.R[r] = v
		} else {
			if err := c.Mem.Write32(addr, c.R[r]); err != nil {
				return err
			}
		}
		addr += 4
	}
	// Writeback unless an LDM reloaded the base register.
	if !(load && list&(1<<rn) != 0) {
		c.R[rn] = addr
	}
	c.Cycles += 1 + uint64(bits.OnesCount16(list))
	return nil
}

// condition evaluates a branch condition against the flags.
func (c *CPU) condition(cond uint8) bool {
	switch cond {
	case 0x0:
		return c.Z
	case 0x1:
		return !c.Z
	case 0x2:
		return c.C
	case 0x3:
		return !c.C
	case 0x4:
		return c.N
	case 0x5:
		return !c.N
	case 0x6:
		return c.V
	case 0x7:
		return !c.V
	case 0x8:
		return c.C && !c.Z
	case 0x9:
		return !c.C || c.Z
	case 0xA:
		return c.N == c.V
	case 0xB:
		return c.N != c.V
	case 0xC:
		return !c.Z && c.N == c.V
	case 0xD:
		return c.Z || c.N != c.V
	default:
		return true
	}
}
