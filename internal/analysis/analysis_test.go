package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

// runFixture loads one testdata fixture package and runs the full
// suite over it.
func runFixture(t *testing.T, fixture string) []Diagnostic {
	t.Helper()
	pkgs, err := Load(".", "./internal/analysis/testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("Load(%s): %v", fixture, err)
	}
	return Run(pkgs, Analyzers())
}

// golden compares rendered diagnostics against the pinned golden file.
func golden(t *testing.T, fixture string, diags []Diagnostic) {
	t.Helper()
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden", fixture+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestUnitCastGolden(t *testing.T)    { golden(t, "unitcast", runFixture(t, "unitcast")) }
func TestDeterminismGolden(t *testing.T) { golden(t, "dse", runFixture(t, "dse")) }
func TestDeterminismFileScope(t *testing.T) {
	diags := runFixture(t, "core")
	golden(t, "core", diags)
	for _, d := range diags {
		if strings.Contains(d.File, "other.go") {
			t.Errorf("other.go is outside the core determinism scope, got %s", d)
		}
	}
}
func TestFloatCmpGolden(t *testing.T)   { golden(t, "yield", runFixture(t, "yield")) }
func TestHotPathGolden(t *testing.T)    { golden(t, "hotpath", runFixture(t, "hotpath")) }
func TestDirectivesGolden(t *testing.T) { golden(t, "directives", runFixture(t, "directives")) }
func TestCtxFlowGolden(t *testing.T)    { golden(t, "server", runFixture(t, "server")) }
func TestLockSafeGolden(t *testing.T)   { golden(t, "flight", runFixture(t, "flight")) }
func TestGoLeakGolden(t *testing.T)     { golden(t, "store", runFixture(t, "store")) }
func TestAPIContractGolden(t *testing.T) {
	golden(t, "apicontract", runFixture(t, "apicontract"))
}

// TestFixturesExitNonzero pins the acceptance criterion that every
// analyzer's fixture produces findings.
func TestFixturesExitNonzero(t *testing.T) {
	for _, fixture := range []string{
		"unitcast", "dse", "core", "yield", "hotpath", "directives",
		"server", "flight", "store", "apicontract",
	} {
		if len(runFixture(t, fixture)) == 0 {
			t.Errorf("fixture %s produced no findings", fixture)
		}
	}
}

// TestSuppressionsHonored checks the two working directive forms in the
// directives fixture: the suppressed unitcast findings must be absent
// while the directive diagnostics remain.
func TestSuppressionsHonored(t *testing.T) {
	for _, d := range runFixture(t, "directives") {
		if d.Analyzer == "unitcast" {
			t.Errorf("suppressed unitcast finding leaked through: %s", d)
		}
	}
}

// TestRepoClean pins the invariant that the tree at HEAD carries no
// unsuppressed findings — the same gate CI enforces via cmd/ppatcvet.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every package in the module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	if diags := Run(pkgs, Analyzers()); len(diags) > 0 {
		for _, d := range diags {
			t.Errorf("unsuppressed finding at HEAD: %s", d)
		}
	}
}

// TestStableOrder runs the suite twice over a fixture with findings
// from several analyzers and requires byte-identical ordering.
func TestStableOrder(t *testing.T) {
	a, b := runFixture(t, "dse"), runFixture(t, "dse")
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("diagnostic %d differs between runs: %s vs %s", i, a[i], b[i])
		}
	}
}
