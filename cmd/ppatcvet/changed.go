package main

import (
	"fmt"
	"os/exec"
	"path"
	"sort"
	"strings"

	"ppatc/internal/analysis"
)

// gitChangedFiles lists the paths git reports as changed relative to
// base (committed, staged, and working-tree edits alike), as
// repo-root-relative slash paths — the same shape diagnostics use.
func gitChangedFiles(dir, base string) ([]string, error) {
	return gitLines(dir, "diff", "--name-only", base, "--")
}

// gitNestedModules lists the directories holding a go.mod other than
// the repository root's (tracked, or untracked and not ignored), as
// repo-root-relative slash paths.
func gitNestedModules(dir string) ([]string, error) {
	mods, err := gitLines(dir, "ls-files", "--cached", "--others", "--exclude-standard", "--full-name", "--", ":(glob)**/go.mod")
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, m := range mods {
		if d := path.Dir(m); d != "." {
			dirs = append(dirs, d)
		}
	}
	return dirs, nil
}

// gitLines runs git in dir and returns its non-empty output lines.
func gitLines(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		name := "git " + strings.Join(args, " ")
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("%s: %s", name, strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	var lines []string
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// changedDirPatterns reduces a changed-file list to the go-list
// patterns covering the packages those files live in: one ./dir per
// directory holding a changed .go file, sorted and deduplicated.
// Fixture sources under testdata are not loadable packages and are
// dropped, as is every directory at or below one of nestedModules (the
// directories of go.mod files other than the root's): those packages
// belong to another module, which go list in the root module refuses.
func changedDirPatterns(files, nestedModules []string) []string {
	seen := map[string]bool{}
	for _, f := range files {
		if !strings.HasSuffix(f, ".go") {
			continue
		}
		d := path.Dir(f)
		if d == "testdata" || strings.HasPrefix(d, "testdata/") || strings.Contains(d, "/testdata") {
			continue
		}
		if inModule(d, nestedModules) {
			continue
		}
		if d == "." {
			seen["."] = true
		} else {
			seen["./"+d] = true
		}
	}
	patterns := make([]string, 0, len(seen))
	for p := range seen {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return patterns
}

// inModule reports whether dir is one of moduleDirs or below one.
func inModule(dir string, moduleDirs []string) bool {
	for _, m := range moduleDirs {
		if dir == m || strings.HasPrefix(dir, m+"/") {
			return true
		}
	}
	return false
}

// githubAnnotation renders one diagnostic as a GitHub Actions workflow
// command, so findings surface inline on the pull request diff.
func githubAnnotation(d analysis.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=ppatcvet(%s)::%s",
		githubEscapeProperty(d.File), d.Line, d.Col,
		githubEscapeProperty(d.Analyzer), githubEscapeMessage(d.Message))
}

// githubEscapeMessage escapes the data portion of a workflow command:
// %, CR, and LF would otherwise terminate or corrupt the command.
func githubEscapeMessage(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProperty escapes a property value, which additionally
// reserves ':' and ','.
func githubEscapeProperty(s string) string {
	s = githubEscapeMessage(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
