package thumb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// fuzzBudget bounds one fuzzed run; arbitrary bytes often loop forever.
const fuzzBudget = 20_000

// isaTour executes every instruction class the simulator decodes, so its
// image seeds the fuzzer with valid encodings of each.
const isaTour = `
	li r7, 0x20000100
	movs r0, #200
	movs r1, #3
	lsls r2, r0, #4
	lsrs r3, r0, #1
	asrs r4, r2, #2
	adds r5, r0, r1
	subs r5, r5, r1
	adds r6, r0, #7
	subs r6, #9
	cmp r6, #150
	ands r2, r1
	eors r2, r0
	lsls r3, r1
	lsrs r3, r1
	asrs r3, r1
	adcs r3, r0
	sbcs r3, r1
	rors r3, r1
	tst r3, r0
	negs r4, r3
	cmp r4, r3
	cmn r4, r3
	orrs r4, r0
	muls r4, r1
	bics r4, r1
	mvns r4, r4
	mov r8, r0
	add r8, r1
	cmp r8, r0
	add r0, pc
	mov r1, pc
	str r0, [r7]
	strh r0, [r7, #4]
	strb r0, [r7, #6]
	ldr r2, [r7]
	ldrh r2, [r7, #4]
	ldrb r2, [r7, #6]
	movs r1, #4
	str r0, [r7, r1]
	strh r0, [r7, r1]
	strb r0, [r7, r1]
	ldr r2, [r7, r1]
	ldrh r2, [r7, r1]
	ldrb r2, [r7, r1]
	ldrsh r2, [r7, r1]
	ldrsb r2, [r7, r1]
	ldr r3, [pc, #4]
	adr r4, lit
	b skip
lit:
	.word 0x8000ff01
skip:
	sub sp, #8
	str r3, [sp, #4]
	ldr r3, [sp, #4]
	add r5, sp, #4
	add sp, #8
	sxth r2, r3
	sxtb r2, r3
	uxth r2, r3
	uxtb r2, r3
	rev r2, r3
	rev16 r2, r3
	revsh r2, r3
	stmia r7!, {r0, r1, r2}
	subs r7, #12
	ldmia r7!, {r4, r5, r6}
	push {r4, r5, lr}
	pop {r4, r5}
	pop {r6}
	movs r0, #5
loop:
	bl leaf
	subs r0, #1
	bne loop
	beq done
	nop
done:
	nop
	bkpt #7
leaf:
	push {r4, lr}
	cmp r0, #3
	bgt more
	blt less
	bhi less
more:
	bls less
less:
	pop {r4, pc}
`

// FuzzThumbExecute runs arbitrary bytes as a program image under a small
// cycle budget. The simulator must not panic: a run halts, exhausts the
// budget or reports a thumb: error. Each image also runs with its
// predecoded table dropped, so every instruction takes the fetch-and-
// decode route; both runs must end in the same state.
func FuzzThumbExecute(f *testing.F) {
	for _, src := range []string{
		isaTour,
		"movs r1, #2\nadd pc, r1\nbkpt #1\nbkpt #2\nbkpt #3",
		"li r0, 0x20000001\nbx r0", // runs zeroed SRAM
		"spin: b spin",
	} {
		prog, err := Assemble(src)
		if err != nil {
			f.Fatalf("seed %q: %v", src, err)
		}
		f.Add(prog.Bytes())
	}
	for _, image := range [][]byte{
		{},
		{0x00, 0xc8},             // ldmia r0!, {}
		{0x80, 0x47},             // blx r0
		{0xff, 0xdf},             // svc
		{0x00, 0xf0, 0x00, 0x00}, // bl prefix without its suffix
		{0x00, 0xba},             // rev's unallocated neighbour
	} {
		f.Add(image)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		pre, preErr := fuzzRun(image, true)
		post, postErr := fuzzRun(image, false)
		if preErr != nil && !errors.Is(preErr, ErrCycleBudget) && !strings.HasPrefix(preErr.Error(), "thumb: ") {
			t.Fatalf("unexpected error %v", preErr)
		}
		if (preErr == nil) != (postErr == nil) || preErr != nil && preErr.Error() != postErr.Error() {
			t.Fatalf("predecoded run: %v, fetch-decoded run: %v", preErr, postErr)
		}
		if pre == nil {
			return
		}
		if !bytes.Equal(pre.Mem.data[:], post.Mem.data[:]) || pre.Mem.Stats != post.Mem.Stats {
			t.Fatalf("memory differs: predecoded %+v, fetch-decoded %+v", pre.Mem.Stats, post.Mem.Stats)
		}
		pre.Mem, post.Mem = nil, nil
		if *pre != *post {
			t.Fatalf("CPU state differs:\n predecoded    %+v\n fetch-decoded %+v", *pre, *post)
		}
	})
}

// fuzzRun loads image as the program and runs it; with predecoded false it
// drops the decoded table first.
func fuzzRun(image []byte, predecoded bool) (*CPU, error) {
	p := &Program{Halfwords: make([]uint16, len(image)/2)}
	for i := range p.Halfwords {
		p.Halfwords[i] = binary.LittleEndian.Uint16(image[2*i:])
	}
	mem := NewMemory()
	if err := mem.LoadProgram(p); err != nil {
		return nil, err
	}
	if !predecoded {
		mem.decoded = nil
	}
	cpu := NewCPU(mem)
	return cpu, cpu.Run(fuzzBudget)
}
