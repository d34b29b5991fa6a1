package thumb

// Instruction decoding. LoadProgram decodes each halfword of the program
// image once, into a table the simulator loop indexes by PC. A PC outside
// that table (execution from SRAM, zeroed memory past the image) fetches
// its halfword and decodes it on the spot. Both routes produce the same
// op and run the same handler.

// opKind selects the handler the simulator loop runs. Kinds within a group follow the
// encoding's own opcode order, so decode can add the opcode field to the
// group's first kind.
type opKind uint8

const (
	opUndefined     opKind = iota // no Thumb-1 instruction
	opUndefinedMisc               // unallocated 1011xxxx encoding
	opEmptyList                   // LDM/STM with an empty register list
	opSVC

	// Shift by immediate: rd, rm, imm (0-31).
	opLSLImm
	opLSRImm
	opASRImm

	// ADDS/SUBS rd, rn, rm.
	opADDReg
	opSUBReg
	// ADDS/SUBS rd, rn, #imm: the imm3 form, and the imm8 form with rn = rd.
	opADDImm
	opSUBImm
	opMOVImm // rd, imm
	opCMPImm // rd, imm

	// Register ALU, in opcode order: rd, rm.
	opAND
	opEOR
	opLSLReg
	opLSRReg
	opASRReg
	opADC
	opSBC
	opROR
	opTST
	opNEG
	opCMPReg
	opCMN
	opORR
	opMUL
	opBIC
	opMVN

	// High-register operations: rd and rm are 0-15.
	opADDHi
	opCMPHi
	opMOVHi
	opBX  // rm
	opBLX // rm

	opLDRLit // rd, imm = word offset ×4 from the aligned PC

	// Register-offset load/store, in opcode order: rd, rn, rm.
	opSTRReg
	opSTRHReg
	opSTRBReg
	opLDRSBReg
	opLDRReg
	opLDRHReg
	opLDRBReg
	opLDRSHReg

	// Immediate-offset load/store: rd, rn, imm scaled to bytes.
	opSTRImm
	opLDRImm
	opSTRBImm
	opLDRBImm
	opSTRHImm
	opLDRHImm

	// SP-relative load/store: rd, imm scaled to bytes.
	opSTRSP
	opLDRSP

	opADR     // rd, imm: ADR rd, PC-relative
	opADDRdSP // rd, imm: ADD rd, sp, #imm
	opADDSP   // imm: ADD sp, #imm
	opSUBSP   // imm: SUB sp, #imm
	opPUSH    // imm = register list, bit 8 = LR
	opPOP     // imm = register list, bit 8 = PC
	opBKPT    // imm = halt code
	opNOP

	// Extend and reverse: rd, rm.
	opSXTH
	opSXTB
	opUXTH
	opUXTB
	opREV
	opREV16
	opREVSH

	opSTM // rn, imm = register list
	opLDM // rn, imm = register list

	opBCond // rd = condition code, imm = signed byte offset from PC+4
	opB     // imm = signed byte offset from PC+4
	opBL    // imm = signed high offset (bits 22:12); the suffix halfword is fetched when run
)

// op is one decoded instruction: its handler and the operand fields that
// handler reads, extracted from the halfword ahead of execution. Signed
// offsets are stored two's-complement in imm, so PC + imm wraps exactly
// as the architecture's 32-bit address arithmetic does.
type op struct {
	kind       opKind
	rd, rn, rm uint8
	// instr is the raw halfword, kept for the error text of faulting kinds.
	instr uint16
	imm   uint32
}

// decode classifies one halfword. It is the simulator's only decoder.
func decode(instr uint16) op {
	d := op{instr: instr}
	lo3 := uint8(instr & 7)       // rd in most low-register formats
	mid3 := uint8(instr >> 3 & 7) // rm or rn
	hi3 := uint8(instr >> 6 & 7)  // rm or imm3
	r8 := uint8(instr >> 8 & 7)   // rd of the imm8 formats
	imm8 := uint32(instr & 0xFF)
	switch {
	case instr>>11 == 0b00011: // add/sub register or imm3
		d.rd, d.rn = lo3, mid3
		if instr&0x0400 == 0 {
			d.kind, d.rm = opADDReg, hi3
		} else {
			d.kind, d.imm = opADDImm, uint32(hi3)
		}
		if instr&0x0200 != 0 {
			d.kind++ // the SUB of each pair
		}
	case instr>>13 == 0b000: // shift by immediate
		d.kind = opLSLImm + opKind(instr>>11&3)
		d.rd, d.rm, d.imm = lo3, mid3, uint32(instr>>6&31)
	case instr>>13 == 0b001: // mov/cmp/add/sub imm8
		d.kind = [4]opKind{opMOVImm, opCMPImm, opADDImm, opSUBImm}[instr>>11&3]
		d.rd, d.rn, d.imm = r8, r8, imm8
	case instr>>10 == 0b010000: // ALU register
		d.kind = opAND + opKind(instr>>6&0xF)
		d.rd, d.rm = lo3, mid3
	case instr>>10 == 0b010001: // hi-reg add/cmp/mov/bx
		d.rd = lo3 | uint8(instr>>4&8)
		d.rm = uint8(instr >> 3 & 0xF)
		d.kind = opADDHi + opKind(instr>>8&3)
		if d.kind == opBX && instr&0x80 != 0 {
			d.kind = opBLX
		}
	case instr>>11 == 0b01001: // LDR literal
		d.kind, d.rd, d.imm = opLDRLit, r8, imm8*4
	case instr>>12 == 0b0101: // load/store register offset
		d.kind = opSTRReg + opKind(instr>>9&7)
		d.rd, d.rn, d.rm = lo3, mid3, hi3
	case instr>>13 == 0b011 || instr>>12 == 0b1000: // load/store immediate
		imm5 := uint32(instr >> 6 & 31)
		d.rd, d.rn = lo3, mid3
		switch instr >> 11 {
		case 0b01100:
			d.kind, d.imm = opSTRImm, imm5*4
		case 0b01101:
			d.kind, d.imm = opLDRImm, imm5*4
		case 0b01110:
			d.kind, d.imm = opSTRBImm, imm5
		case 0b01111:
			d.kind, d.imm = opLDRBImm, imm5
		case 0b10000:
			d.kind, d.imm = opSTRHImm, imm5*2
		case 0b10001:
			d.kind, d.imm = opLDRHImm, imm5*2
		}
	case instr>>12 == 0b1001: // SP-relative load/store
		d.kind, d.rd, d.imm = opSTRSP, r8, imm8*4
		if instr&0x0800 != 0 {
			d.kind = opLDRSP
		}
	case instr>>12 == 0b1010: // ADR / ADD rd, sp
		d.kind, d.rd, d.imm = opADR, r8, imm8*4
		if instr&0x0800 != 0 {
			d.kind = opADDRdSP
		}
	case instr>>12 == 0b1011: // misc
		decodeMisc(&d)
	case instr>>12 == 0b1100: // LDMIA/STMIA
		d.kind, d.rn, d.imm = opSTM, r8, imm8
		if instr&0x0800 != 0 {
			d.kind = opLDM
		}
		if imm8 == 0 {
			d.kind = opEmptyList
		}
	case instr>>12 == 0b1101: // conditional branch
		d.kind, d.rd = opBCond, uint8(instr>>8&0xF)
		d.imm = uint32(int32(int8(instr&0xFF)) * 2)
		if d.rd == 0xF {
			d.kind = opSVC
		}
	case instr>>11 == 0b11100: // unconditional branch
		d.kind = opB
		d.imm = uint32(int32(instr&0x7FF) << 21 >> 21 * 2)
	case instr>>11 == 0b11110: // BL prefix
		d.kind = opBL
		d.imm = uint32(int32(instr&0x7FF) << 21 >> 21 << 12)
	}
	return d
}

// decodeMisc classifies the 1011xxxx miscellaneous group.
func decodeMisc(d *op) {
	instr := d.instr
	d.rd, d.rm = uint8(instr&7), uint8(instr>>3&7)
	switch {
	case instr>>8 == 0b10110000: // ADD/SUB SP
		d.kind, d.imm = opADDSP, uint32(instr&0x7F)*4
		if instr&0x80 != 0 {
			d.kind = opSUBSP
		}
	case instr>>9 == 0b1011010:
		d.kind, d.imm = opPUSH, uint32(instr&0x1FF)
	case instr>>9 == 0b1011110:
		d.kind, d.imm = opPOP, uint32(instr&0x1FF)
	case instr>>8 == 0b10111110:
		d.kind, d.imm = opBKPT, uint32(instr&0xFF)
	case instr == 0xBF00:
		d.kind = opNOP
	case instr>>8 == 0b10110010:
		d.kind = opSXTH + opKind(instr>>6&3)
	case instr>>8 == 0b10111010:
		d.kind = [4]opKind{opREV, opREV16, opUndefinedMisc, opREVSH}[instr>>6&3]
	default:
		d.kind = opUndefinedMisc
	}
}
