package embench

import (
	"math"
	"strings"
	"testing"

	"ppatc/internal/thumb"
)

const runBudget = 200_000_000

// goldenCounts pins every kernel's simulation exactly: cycles,
// instructions, memory traffic and checksum. The cycle tolerance in
// TestMatmultCycleAnchor guards the paper anchor; this table guards the
// simulator, where a one-cycle drift is a bug.
var goldenCounts = map[string]Result{
	"blockmove":   {Cycles: 257092, Instructions: 100301, Stats: thumb.AccessStats{ProgramReads: 100301, DataReads: 61500, DataWrites: 62525}, Checksum: 0x6686a800},
	"crc32":       {Cycles: 2532353, Instructions: 1538043, Stats: thumb.AccessStats{ProgramReads: 1538043, DataReads: 10240, DataWrites: 256}, Checksum: 0x9501270e},
	"edn":         {Cycles: 962993, Instructions: 591979, Stats: thumb.AccessStats{ProgramReads: 591979, DataReads: 185088, DataWrites: 92816}, Checksum: 0x61c7dc0},
	"huff":        {Cycles: 178947, Instructions: 139680, Stats: thumb.AccessStats{ProgramReads: 139680, DataReads: 6425, DataWrites: 282}, Checksum: 0x6ce4d280},
	"matmult-int": {Cycles: 20047423, Instructions: 13521280, Stats: thumb.AccessStats{ProgramReads: 13521280, DataReads: 3459781, DataWrites: 152364}, Checksum: 0xe97fe100},
	"qsort-int":   {Cycles: 1235740, Instructions: 875259, Stats: thumb.AccessStats{ProgramReads: 875259, DataReads: 115824, DataWrites: 95729}, Checksum: 0x0},
	"sieve":       {Cycles: 1130293, Instructions: 778473, Stats: thumb.AccessStats{ProgramReads: 778473, DataReads: 41560, DataWrites: 75540}, Checksum: 0x1608},
	"strsearch":   {Cycles: 1548898, Instructions: 1052964, Stats: thumb.AccessStats{ProgramReads: 1052964, DataReads: 185850, DataWrites: 62462}, Checksum: 0x1e},
}

func TestAllWorkloadsMatchGolden(t *testing.T) {
	if ws := Workloads(); len(ws) != len(goldenCounts) {
		t.Fatalf("%d bundled workloads, %d golden rows", len(ws), len(goldenCounts))
	}
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(w, runBudget)
			if err != nil {
				t.Fatal(err)
			}
			if res.Checksum != w.Expected {
				t.Fatalf("checksum %#x, want %#x", res.Checksum, w.Expected)
			}
			want, ok := goldenCounts[w.Name]
			if !ok {
				t.Fatal("no golden counts row")
			}
			want.Workload = w.Name
			if res != want {
				t.Errorf("counts drifted:\n got  %+v\n want %+v", res, want)
			}
			t.Logf("%s: %d cycles, %d instr, prog %d, dr %d, dw %d (%.3f/%.3f/%.3f per cycle)",
				w.Name, res.Cycles, res.Instructions,
				res.Stats.ProgramReads, res.Stats.DataReads, res.Stats.DataWrites,
				res.ProgramReadsPerCycle(), res.DataReadsPerCycle(), res.DataWritesPerCycle())
		})
	}
}

// TestMatmultCycleAnchor pins the calibrated repetition count: the paper's
// Table II reports 20,047,348 cycles for matmul-int; the bundled workload
// must land within 1%.
func TestMatmultCycleAnchor(t *testing.T) {
	res, err := Run(MatmultInt(), runBudget)
	if err != nil {
		t.Fatal(err)
	}
	const paper = 20_047_348
	dev := math.Abs(float64(res.Cycles)-paper) / paper
	if dev > 0.01 {
		t.Errorf("matmult-int cycles = %d, paper anchor %d (%.2f%% off)",
			res.Cycles, paper, 100*dev)
	}
	t.Logf("matmult-int: %d cycles (paper %d, %.3f%% off)", res.Cycles, paper, 100*dev)
}

func TestByName(t *testing.T) {
	w, err := ByName("crc32")
	if err != nil || w.Name != "crc32" {
		t.Errorf("ByName(crc32) = %v, %v", w.Name, err)
	}
	if _, err := ByName("quicksort"); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestWorkloadsSortedAndDistinct(t *testing.T) {
	ws := Workloads()
	if len(ws) < 5 {
		t.Fatalf("suite has %d workloads, want ≥ 5", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Name <= ws[i-1].Name {
			t.Errorf("workloads not sorted: %q after %q", ws[i].Name, ws[i-1].Name)
		}
	}
	for _, w := range ws {
		if w.Description == "" || w.Source == "" {
			t.Errorf("%s: missing description or source", w.Name)
		}
	}
}

func TestAccessRatesSane(t *testing.T) {
	// Every workload fetches roughly one instruction per cycle-or-less and
	// has nonzero data traffic.
	for _, w := range Workloads() {
		res, err := Run(w, runBudget)
		if err != nil {
			t.Fatal(err)
		}
		pr := res.ProgramReadsPerCycle()
		if pr <= 0.2 || pr > 1.0 {
			t.Errorf("%s: program reads per cycle = %.3f, want (0.2, 1.0]", w.Name, pr)
		}
		if res.Stats.DataReads == 0 || res.Stats.DataWrites == 0 {
			t.Errorf("%s: expected both data reads and writes", w.Name)
		}
	}
}

func TestSieveCountsPrimes(t *testing.T) {
	// π(4096) − π(1) = 564 primes in [2, 4096).
	if got := sieveGolden(1); got != 564 {
		t.Errorf("primes below 4096 = %d, want 564", got)
	}
}

func TestMatmultGoldenRepScaling(t *testing.T) {
	// The checksum accumulates identically each repetition: reps scale it
	// modulo 2³².
	one := matmultGolden(1)
	three := matmultGolden(3)
	if three != one*3 {
		t.Errorf("golden(3) = %#x, want 3×golden(1) = %#x", three, one*3)
	}
}

func TestRunRejectsTinyBudget(t *testing.T) {
	if _, err := Run(MatmultInt(), 100); err == nil {
		t.Error("tiny cycle budget should fail")
	}
}

func TestScoreIdentityAndScaling(t *testing.T) {
	ref, err := ReferenceCycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 8 {
		t.Fatalf("reference has %d workloads", len(ref))
	}
	// Identity: scoring the reference against itself gives exactly 1.
	s, err := Score(ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("self-score = %v, want 1", s)
	}
	// A uniformly 2× slower platform scores 0.5.
	slow := make(map[string]uint64, len(ref))
	for k, v := range ref {
		slow[k] = 2 * v
	}
	s, err = Score(slow)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.5) > 1e-9 {
		t.Errorf("2× slower score = %v, want 0.5", s)
	}
	// Missing workloads and zero cycles fail.
	if _, err := Score(map[string]uint64{"crc32": 1}); err == nil {
		t.Error("partial measurement should fail")
	}
	bad := make(map[string]uint64, len(ref))
	for k := range ref {
		bad[k] = 0
	}
	if _, err := Score(bad); err == nil {
		t.Error("zero cycles should fail")
	}
	out, err := FormatReference()
	if err != nil || !strings.Contains(out, "matmult-int") {
		t.Errorf("reference table: %v", err)
	}
	// ReferenceCycles returns a copy: mutating it must not poison the cache.
	ref["matmult-int"] = 1
	again, _ := ReferenceCycles()
	if again["matmult-int"] == 1 {
		t.Error("reference cache was mutated through the returned map")
	}
}
