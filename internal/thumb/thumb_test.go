package thumb

import (
	"strings"
	"testing"
	"testing/quick"
)

// run assembles and executes a source program until BKPT, returning the CPU.
func run(t *testing.T, src string) *CPU {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := NewMemory()
	if err := mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(mem)
	if err := cpu.Run(100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cpu
}

func TestMovAddSub(t *testing.T) {
	cpu := run(t, `
		movs r0, #10
		movs r1, #3
		adds r2, r0, r1   ; 13
		subs r3, r0, r1   ; 7
		adds r2, #100     ; 113
		subs r2, #13      ; 100
		bkpt #0
	`)
	if cpu.R[2] != 100 || cpu.R[3] != 7 {
		t.Errorf("r2=%d r3=%d, want 100, 7", cpu.R[2], cpu.R[3])
	}
}

func TestFlagsAndConditionalBranches(t *testing.T) {
	// Signed and unsigned comparisons choose different branches.
	cpu := run(t, `
		movs r0, #0
		subs r0, #1       ; r0 = -1 = 0xFFFFFFFF
		movs r1, #1
		cmp r0, r1
		blt signed_ok     ; -1 < 1 signed
		movs r2, #0
		b check_unsigned
	signed_ok:
		movs r2, #1
	check_unsigned:
		cmp r0, r1
		bhi unsigned_ok   ; 0xFFFFFFFF > 1 unsigned
		movs r3, #0
		b done
	unsigned_ok:
		movs r3, #1
	done:
		bkpt #0
	`)
	if cpu.R[2] != 1 {
		t.Error("signed comparison failed: -1 should be < 1")
	}
	if cpu.R[3] != 1 {
		t.Error("unsigned comparison failed: 0xFFFFFFFF should be > 1")
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 = 5050.
	cpu := run(t, `
		movs r0, #0       ; sum
		movs r1, #100     ; i
	loop:
		adds r0, r0, r1
		subs r1, #1
		bne loop
		bkpt #0
	`)
	if cpu.R[0] != 5050 {
		t.Errorf("sum = %d, want 5050", cpu.R[0])
	}
}

func TestMultiply(t *testing.T) {
	cpu := run(t, `
		movs r0, #25
		movs r1, #37
		muls r0, r1
		bkpt #0
	`)
	if cpu.R[0] != 925 {
		t.Errorf("25×37 = %d, want 925", cpu.R[0])
	}
}

func TestLIPseudoInstruction(t *testing.T) {
	values := []uint32{0, 1, 255, 256, 0x1234, 0xDEADBEEF, 0x20000000, 0x00FF00FF, 0xFFFFFFFF}
	for _, v := range values {
		cpu := run(t, `
			li r4, `+hex(v)+`
			bkpt #0
		`)
		if cpu.R[4] != v {
			t.Errorf("li %#x loaded %#x", v, cpu.R[4])
		}
	}
}

// Property: li loads any 32-bit value exactly.
func TestLIProperty(t *testing.T) {
	f := func(v uint32) bool {
		prog, err := Assemble("li r0, " + hex(v) + "\nbkpt #0\n")
		if err != nil {
			return false
		}
		mem := NewMemory()
		if err := mem.LoadProgram(prog); err != nil {
			return false
		}
		cpu := NewCPU(mem)
		if err := cpu.Run(1000); err != nil {
			return false
		}
		return cpu.R[0] == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftSemantics(t *testing.T) {
	cpu := run(t, `
		movs r0, #1
		lsls r1, r0, #31  ; 0x80000000
		lsrs r2, r1, #31  ; 1
		asrs r3, r1, #31  ; 0xFFFFFFFF
		movs r4, #5
		movs r5, #240
		lsrs r5, r4       ; 240 >> 5 = 7
		bkpt #0
	`)
	if cpu.R[1] != 0x80000000 {
		t.Errorf("lsl31 = %#x", cpu.R[1])
	}
	if cpu.R[2] != 1 {
		t.Errorf("lsr31 = %#x", cpu.R[2])
	}
	if cpu.R[3] != 0xFFFFFFFF {
		t.Errorf("asr31 = %#x", cpu.R[3])
	}
	if cpu.R[5] != 7 {
		t.Errorf("register shift = %d, want 7", cpu.R[5])
	}
}

func TestBitwiseOps(t *testing.T) {
	cpu := run(t, `
		movs r0, #0xF0
		movs r1, #0xCC
		movs r2, #0xF0
		ands r2, r1       ; 0xC0
		movs r3, #0xF0
		orrs r3, r1       ; 0xFC
		movs r4, #0xF0
		eors r4, r1       ; 0x3C
		movs r5, #0xF0
		bics r5, r1       ; 0x30
		mvns r6, r0       ; 0xFFFFFF0F
		bkpt #0
	`)
	want := map[int]uint32{2: 0xC0, 3: 0xFC, 4: 0x3C, 5: 0x30, 6: 0xFFFFFF0F}
	for r, w := range want {
		if cpu.R[r] != w {
			t.Errorf("r%d = %#x, want %#x", r, cpu.R[r], w)
		}
	}
}

func TestMemoryAccessAndStats(t *testing.T) {
	cpu := run(t, `
		li r0, 0x20000000
		movs r1, #42
		str r1, [r0]          ; word store
		ldr r2, [r0]          ; word load
		movs r3, #7
		strb r3, [r0, #8]     ; byte store
		ldrb r4, [r0, #8]
		movs r5, #21
		strh r5, [r0, #16]
		ldrh r6, [r0, #16]
		bkpt #0
	`)
	if cpu.R[2] != 42 || cpu.R[4] != 7 || cpu.R[6] != 21 {
		t.Errorf("loads: r2=%d r4=%d r6=%d", cpu.R[2], cpu.R[4], cpu.R[6])
	}
	st := cpu.Mem.Stats
	if st.DataWrites != 3 || st.DataReads != 3 {
		t.Errorf("data accesses: %d writes %d reads, want 3/3", st.DataWrites, st.DataReads)
	}
	if st.ProgramReads != cpu.Instructions {
		t.Errorf("program reads %d != instructions %d (no BL here)", st.ProgramReads, cpu.Instructions)
	}
}

func TestRegisterOffsetAddressing(t *testing.T) {
	cpu := run(t, `
		li r0, 0x20000000
		movs r1, #12
		movs r2, #99
		str r2, [r0, r1]
		ldr r3, [r0, r1]
		bkpt #0
	`)
	if cpu.R[3] != 99 {
		t.Errorf("register-offset load = %d, want 99", cpu.R[3])
	}
}

func TestFunctionCall(t *testing.T) {
	cpu := run(t, `
		movs r0, #6
		movs r1, #7
		bl multiply
		bkpt #0
	multiply:
		push {r4, lr}
		movs r4, r0
		muls r4, r1
		movs r0, r4
		pop {r4}
		pop {r7}      ; grab lr manually into r7
		bx r7
	`)
	if cpu.R[0] != 42 {
		t.Errorf("call result = %d, want 42", cpu.R[0])
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	cpu := run(t, `
		movs r4, #11
		movs r5, #22
		movs r6, #33
		push {r4-r6}
		movs r4, #0
		movs r5, #0
		movs r6, #0
		pop {r4-r6}
		bkpt #0
	`)
	if cpu.R[4] != 11 || cpu.R[5] != 22 || cpu.R[6] != 33 {
		t.Errorf("pop restored r4=%d r5=%d r6=%d", cpu.R[4], cpu.R[5], cpu.R[6])
	}
	if cpu.R[13] != StackTop {
		t.Errorf("SP = %#x, want restored to %#x", cpu.R[13], StackTop)
	}
}

func TestSPRelativeAccess(t *testing.T) {
	cpu := run(t, `
		sub sp, #16
		movs r0, #77
		str r0, [sp, #4]
		ldr r1, [sp, #4]
		add sp, #16
		bkpt #0
	`)
	if cpu.R[1] != 77 {
		t.Errorf("sp-relative load = %d, want 77", cpu.R[1])
	}
}

func TestCycleCountingBasics(t *testing.T) {
	// 3 single-cycle ops + BKPT(1) = 4 cycles.
	cpu := run(t, `
		movs r0, #1
		movs r1, #2
		adds r0, r0, r1
		bkpt #0
	`)
	if cpu.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", cpu.Cycles)
	}
	// Loads cost 2, taken branches 3, untaken 1.
	cpu = run(t, `
		li r0, 0x20000000 ; movs + 3×lsls = 4 cycles
		ldr r1, [r0]      ; 2
		cmp r1, #0        ; 1
		bne never         ; 1 (not taken)
		b skip            ; 3 (taken)
	never:
		movs r2, #9
	skip:
		bkpt #0           ; 1
	`)
	if cpu.Cycles != 12 {
		t.Errorf("cycles = %d, want 12", cpu.Cycles)
	}
}

func TestBLCountsTwoFetches(t *testing.T) {
	cpu := run(t, `
		bl target
	target:
		bkpt #0
	`)
	// BL is a 32-bit instruction: 2 fetches; BKPT: 1.
	if cpu.Mem.Stats.ProgramReads != 3 {
		t.Errorf("program reads = %d, want 3", cpu.Mem.Stats.ProgramReads)
	}
	if cpu.Cycles != 5 { // BL 4 + BKPT 1
		t.Errorf("cycles = %d, want 5", cpu.Cycles)
	}
}

func TestWordDirectiveAndPCRelativeLoad(t *testing.T) {
	cpu := run(t, `
		ldr r0, [pc, #4]
		b done
		nop
		nop
	value:
		.word 0x12345678
	done:
		bkpt #0
	`)
	if cpu.R[0] != 0x12345678 {
		t.Errorf("pc-relative load = %#x, want 0x12345678", cpu.R[0])
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"frobnicate r0",
		"movs r9, #1",
		"movs r0, #300",
		"adds r0, r1, #9",
		"b nowhere",
		"dup: nop\ndup: nop",
		"ldr r0, [r1, #3]", // misaligned word offset
		"push {}",
		"pop {lr}",
		".word 1\nnop\n.word 2\n", // second .word misaligned? (1 word + nop = 6 bytes)
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected assembly error for %q", src)
		}
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	prog, err := Assemble(`
		li r0, 0x40000000
		ldr r1, [r0]
		bkpt #0
	`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	if err := mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(mem)
	if err := cpu.Run(1000); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("expected unmapped access error, got %v", err)
	}
}

func TestStoreToProgramMemoryFails(t *testing.T) {
	prog, err := Assemble(`
		movs r0, #0
		movs r1, #1
		str r1, [r0]
		bkpt #0
	`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	if err := mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(mem)
	if err := cpu.Run(1000); err == nil {
		t.Error("store to program memory should fail")
	}
}

func TestCycleBudget(t *testing.T) {
	prog, err := Assemble("spin: b spin")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	if err := mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(mem)
	if err := cpu.Run(100); err != ErrCycleBudget {
		t.Errorf("expected cycle budget error, got %v", err)
	}
}

// Property: adds/subs match Go's uint32 arithmetic for arbitrary inputs.
func TestArithmeticProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		src := `
			li r0, ` + hex(uint32(a)) + `
			li r1, ` + hex(uint32(b)) + `
			adds r2, r0, r1
			subs r3, r0, r1
			muls r0, r1
			bkpt #0
		`
		prog, err := Assemble(src)
		if err != nil {
			return false
		}
		mem := NewMemory()
		if mem.LoadProgram(prog) != nil {
			return false
		}
		cpu := NewCPU(mem)
		if cpu.Run(1000) != nil {
			return false
		}
		return cpu.R[2] == uint32(a)+uint32(b) &&
			cpu.R[3] == uint32(a)-uint32(b) &&
			cpu.R[0] == uint32(a)*uint32(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func hex(v uint32) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 10)
	out = append(out, '0', 'x')
	started := false
	for i := 7; i >= 0; i-- {
		d := byte(v >> (4 * i) & 0xF)
		if d != 0 || started || i == 0 {
			out = append(out, digits[d])
			started = true
		}
	}
	return string(out)
}

// High-register ADD and CMP read PC as the instruction's address + 4, as
// MOV does.
func TestHiRegReadsPCPlus4(t *testing.T) {
	cpu := run(t, `
		movs r0, #0   ; 0x0
		add r0, pc    ; 0x2: r0 = 0x2 + 4
		bkpt #0
	`)
	if cpu.R[0] != 6 {
		t.Errorf("add r0, pc at 0x2: r0 = %d, want 6", cpu.R[0])
	}

	cpu = run(t, `
		movs r1, #2   ; 0x0
		add pc, r1    ; 0x2: branch to 0x2 + 4 + 2
		movs r0, #1   ; 0x4
		bkpt #1       ; 0x6
		movs r0, #2   ; 0x8
		bkpt #2       ; 0xa
	`)
	if cpu.HaltCode != 2 || cpu.R[0] != 2 {
		t.Errorf("add pc, r1 at 0x2 halted at bkpt #%d with r0 = %d, want bkpt #2, r0 = 2", cpu.HaltCode, cpu.R[0])
	}
	if cpu.Cycles != 6 { // movs 1 + add pc 3 + movs 1 + bkpt 1
		t.Errorf("cycles = %d, want 6", cpu.Cycles)
	}

	cpu = run(t, `
		movs r0, #6   ; 0x0
		cmp r0, pc    ; 0x2: PC reads 0x6
		bkpt #0
	`)
	if !cpu.Z || !cpu.C {
		t.Errorf("cmp r0, pc at 0x2 with r0 = 6: Z=%v C=%v, want equal", cpu.Z, cpu.C)
	}
}

func TestExtendAndReverseOps(t *testing.T) {
	cpu := run(t, `
		li r0, 0x1234f689
		sxth r1, r0       ; 0xfffff689
		sxtb r2, r0       ; 0xffffff89
		uxth r3, r0       ; 0x0000f689
		uxtb r4, r0       ; 0x00000089
		rev r5, r0        ; 0x89f63412
		rev16 r6, r0      ; 0x341289f6
		revsh r7, r0      ; 0xffff89f6
		bkpt #0
	`)
	want := map[int]uint32{
		1: 0xFFFFF689, 2: 0xFFFFFF89, 3: 0x0000F689, 4: 0x00000089,
		5: 0x89F63412, 6: 0x341289F6, 7: 0xFFFF89F6,
	}
	for r, w := range want {
		if cpu.R[r] != w {
			t.Errorf("r%d = %#x, want %#x", r, cpu.R[r], w)
		}
	}
}

func TestLoadStoreMultiple(t *testing.T) {
	cpu := run(t, `
		li r0, 0x20000000
		movs r1, #11
		movs r2, #22
		movs r3, #33
		stmia r0!, {r1-r3}
		li r0, 0x20000000
		ldmia r0!, {r4-r6}
		bkpt #0
	`)
	if cpu.R[4] != 11 || cpu.R[5] != 22 || cpu.R[6] != 33 {
		t.Errorf("ldmia restored %d %d %d", cpu.R[4], cpu.R[5], cpu.R[6])
	}
	// Writeback: base advanced by 12.
	if cpu.R[0] != 0x2000000C {
		t.Errorf("base after ldmia = %#x, want 0x2000000c", cpu.R[0])
	}
	// LDM/STM cycle cost is 1+N: verify via total data accesses.
	if cpu.Mem.Stats.DataWrites != 3 || cpu.Mem.Stats.DataReads != 3 {
		t.Errorf("multiple transfer counts wrong: %+v", cpu.Mem.Stats)
	}
}

func TestLDMBaseInListNoWriteback(t *testing.T) {
	cpu := run(t, `
		li r0, 0x20000000
		movs r1, #99
		str r1, [r0]
		li r2, 0x20000100
		str r2, [r0, #4]
		ldmia r0!, {r1}    ; base not in list: writeback
		li r0, 0x20000000
		ldmia r0!, {r0}    ; base in list: r0 takes the loaded value
		bkpt #0
	`)
	if cpu.R[0] != 99 {
		t.Errorf("ldm with base in list: r0 = %d, want loaded 99", cpu.R[0])
	}
	if cpu.R[1] != 99 {
		t.Errorf("ldm writeback form: r1 = %d, want 99", cpu.R[1])
	}
}

func TestStmLdmAssemblerErrors(t *testing.T) {
	bad := []string{
		"stmia r9!, {r1}",
		"ldmia r0!, {lr}",
		"stmia r0!",
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func Test64BitArithmeticCarryChain(t *testing.T) {
	// 64-bit add via adds/adcs: 0xFFFFFFFF_00000001 + 0x00000001_FFFFFFFF
	// = 0x1_00000001_00000000 (truncated to 64 bits: 0x00000001_00000000).
	cpu := run(t, `
		li r0, 0x00000001  ; a.lo
		li r1, 0xffffffff  ; a.hi
		li r2, 0xffffffff  ; b.lo
		li r3, 0x00000001  ; b.hi
		adds r0, r0, r2    ; lo sum, sets carry
		adcs r1, r3        ; hi sum + carry
		bkpt #0
	`)
	if cpu.R[0] != 0x00000000 {
		t.Errorf("low word = %#x, want 0", cpu.R[0])
	}
	if cpu.R[1] != 0x00000001 {
		t.Errorf("high word = %#x, want 1", cpu.R[1])
	}
	// 64-bit subtract via subs/sbcs: 0x1_00000000 − 1 = 0x0_FFFFFFFF.
	cpu = run(t, `
		movs r0, #0        ; a.lo
		movs r1, #1        ; a.hi
		movs r2, #1        ; b.lo
		movs r3, #0        ; b.hi
		subs r0, r0, r2
		sbcs r1, r3
		bkpt #0
	`)
	if cpu.R[0] != 0xFFFFFFFF || cpu.R[1] != 0 {
		t.Errorf("64-bit sub = %#x_%08x, want 0_ffffffff", cpu.R[1], cpu.R[0])
	}
}

func TestOverflowFlagSemantics(t *testing.T) {
	// 0x7FFFFFFF + 1 overflows signed (V set, bvs taken) but not unsigned.
	cpu := run(t, `
		li r0, 0x7fffffff
		movs r1, #1
		adds r0, r0, r1
		bvs v_set
		movs r2, #0
		b check_c
	v_set:
		movs r2, #1
	check_c:
		bcs c_set
		movs r3, #0
		b done
	c_set:
		movs r3, #1
	done:
		bkpt #0
	`)
	if cpu.R[2] != 1 {
		t.Error("signed overflow should set V")
	}
	if cpu.R[3] != 0 {
		t.Error("no unsigned carry expected")
	}
}
