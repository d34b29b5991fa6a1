package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"ppatc/internal/analysis"
)

func TestListPrintsEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(analysis.Analyzers()) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(analysis.Analyzers()), out)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) || !strings.Contains(out, a.Doc) {
			t.Errorf("-list output missing %s / its doc:\n%s", a.Name, out)
		}
	}
}

// TestJSONRoundTrip pins the -json contract: the output parses as a
// JSON array of analysis.Diagnostic and survives a re-encode without
// losing a field.
func TestJSONRoundTrip(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./internal/analysis/testdata/src/yield"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("fixture run exited %d, want 1: %s", code, stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output does not parse as []Diagnostic: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	for _, d := range diags {
		if d.Analyzer == "" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("diagnostic lost a field in JSON: %+v", d)
		}
	}
	again, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var back []analysis.Diagnostic
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diags, back) {
		t.Errorf("diagnostics changed across a re-encode:\n%v\nvs\n%v", diags, back)
	}
}

// TestJSONEmptyIsArray checks a clean run still emits valid JSON ([]),
// so CI consumers never see "null".
func TestJSONEmptyIsArray(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./internal/units"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean package exited %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestFixtureExitCodes pins the exit-status contract on each
// analyzer's fixture.
func TestFixtureExitCodes(t *testing.T) {
	for _, fixture := range []string{
		"unitcast", "dse", "core", "yield", "hotpath", "directives",
		"server", "flight", "store", "apicontract",
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"./internal/analysis/testdata/src/" + fixture}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("fixture %s exited %d, want 1\nstdout: %s\nstderr: %s",
				fixture, code, stdout.String(), stderr.String())
		}
	}
}

func TestDisableFlagSilencesAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-floatcmp=false", "./internal/analysis/testdata/src/yield"}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("yield fixture with floatcmp disabled exited %d\n%s%s",
			code, stdout.String(), stderr.String())
	}
	// The fixture's in-source suppression must not be reported stale
	// while its analyzer is disabled.
	if strings.Contains(stdout.String(), "suppresses nothing") {
		t.Errorf("disabled analyzer's suppression reported stale:\n%s", stdout.String())
	}
}

func TestUsageAndLoadErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad pattern exited %d, want 2", code)
	}
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	allOff := make([]string, 0, len(analysis.Analyzers()))
	for _, a := range analysis.Analyzers() {
		allOff = append(allOff, "-"+a.Name+"=false")
	}
	if code := run(allOff, &stdout, &stderr); code != 2 {
		t.Errorf("all-disabled exited %d, want 2", code)
	}
}

// TestFormatGitHub pins the -format github contract: one ::error
// workflow command per finding, carrying the file, position, and
// analyzer, with exit status 1.
func TestFormatGitHub(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "github", "./internal/analysis/testdata/src/yield"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("fixture run exited %d, want 1: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no annotations emitted")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=internal/analysis/testdata/src/yield/") {
			t.Errorf("annotation does not target the fixture file: %q", line)
		}
		if !strings.Contains(line, ",line=") || !strings.Contains(line, "title=ppatcvet(") {
			t.Errorf("annotation missing position or title: %q", line)
		}
	}
}

func TestFormatValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown format exited %d, want 2", code)
	}
	if code := run([]string{"-json", "-format", "github"}, &stdout, &stderr); code != 2 {
		t.Errorf("conflicting -json/-format exited %d, want 2", code)
	}
	if code := run([]string{"-changed", "HEAD", "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("-changed with explicit patterns exited %d, want 2", code)
	}
}

// TestChangedDirPatterns pins the pure file→pattern mapping -changed
// rests on.
func TestChangedDirPatterns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		files  []string
		nested []string
		want   []string
	}{
		{
			name: "root module",
			files: []string{
				"internal/server/batch.go",
				"internal/server/pool.go",
				"internal/store/segment.go",
				"internal/analysis/testdata/src/server/request.go", // fixture: dropped
				"README.md",            // not Go: dropped
				"main.go",              // module root
				"docs/example_test.go", // any .go file counts
			},
			want: []string{".", "./docs", "./internal/server", "./internal/store"},
		},
		{
			name:   "nested module and its subpackages dropped",
			files:  []string{"tools/gen/main.go", "tools/gen/internal/x/x.go", "internal/core/memo.go"},
			nested: []string{"tools/gen"},
			want:   []string{"./internal/core"},
		},
		{
			name:   "parent and sibling of a nested module kept",
			files:  []string{"tools/tools.go", "tools/genx/main.go", "tools/gen/main.go"},
			nested: []string{"tools/gen"},
			want:   []string{"./tools", "./tools/genx"},
		},
		{
			name:   "only nested-module changes",
			files:  []string{"bench/main.go", "bench/run/run.go"},
			nested: []string{"bench", "other"},
			want:   []string{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := changedDirPatterns(tc.files, tc.nested); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("changedDirPatterns = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestChangedModeAgainstHEAD runs the real git path: relative to HEAD
// the tree either has no Go changes (exit 0, nothing loaded) or only
// this PR's packages, which are clean at HEAD by the repo-clean gate.
func TestChangedModeAgainstHEAD(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-changed", "HEAD", "-dir", "../.."}, &stdout, &stderr); code != 0 {
		t.Errorf("-changed HEAD exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestGitNestedModules finds the repository's one nested module, the
// benchmark harness, and not the root module itself.
func TestGitNestedModules(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	got, err := gitNestedModules("../..")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"benchmark/testdata"}; !reflect.DeepEqual(got, want) {
		t.Errorf("gitNestedModules = %v, want %v", got, want)
	}
}

// TestGitHubEscaping keeps workflow-command metacharacters from
// corrupting annotations.
func TestGitHubEscaping(t *testing.T) {
	d := analysis.Diagnostic{
		Analyzer: "ctxflow",
		File:     "a,b:c.go",
		Line:     3,
		Col:      7,
		Message:  "50% done\nnext line",
	}
	got := githubAnnotation(d)
	want := "::error file=a%2Cb%3Ac.go,line=3,col=7,title=ppatcvet(ctxflow)::50%25 done%0Anext line"
	if got != want {
		t.Errorf("githubAnnotation:\n got %q\nwant %q", got, want)
	}
}
