// Command ppatcvet runs ppatc's domain-specific static-analysis suite
// — unitcast, determinism, floatcmp, hotpath, ctxflow, locksafe,
// goleak, apicontract — over the packages matching the given go-list
// patterns (default ./...).
//
//	go run ./cmd/ppatcvet ./...                 # human-readable findings
//	go run ./cmd/ppatcvet -json ./...           # JSON array of diagnostics
//	go run ./cmd/ppatcvet -format github ./...  # GitHub ::error annotations
//	go run ./cmd/ppatcvet -changed origin/main  # only packages changed since the ref
//	go run ./cmd/ppatcvet -list                 # analyzer names and docs
//	go run ./cmd/ppatcvet -floatcmp=false ./internal/...
//
// Exit status: 0 when clean, 1 on findings, 2 on usage or load errors.
// Deliberate violations are suppressed in place:
//
//	//ppatcvet:ignore <analyzer>[,<analyzer>...] <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ppatc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppatcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of diagnostics (same as -format json)")
	format := fs.String("format", "", "output format: text (default), json, or github (::error workflow annotations)")
	changed := fs.String("changed", "", "git base ref: analyze only packages with Go files changed since it (replaces the patterns)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", ".", "directory whose module the patterns resolve in")

	enabled := make(map[string]*bool)
	for _, a := range analysis.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer ("+a.Doc+")")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "":
		if *jsonOut {
			*format = "json"
		} else {
			*format = "text"
		}
	case "text", "json", "github":
		if *jsonOut && *format != "json" {
			fmt.Fprintf(stderr, "ppatcvet: -json conflicts with -format %s\n", *format)
			return 2
		}
	default:
		fmt.Fprintf(stderr, "ppatcvet: unknown -format %q (want text, json, or github)\n", *format)
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var analyzers []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(stderr, "ppatcvet: every analyzer is disabled")
		return 2
	}

	patterns := fs.Args()
	if *changed != "" {
		if len(patterns) > 0 {
			fmt.Fprintln(stderr, "ppatcvet: -changed replaces the package patterns; pass one or the other")
			return 2
		}
		files, err := gitChangedFiles(*dir, *changed)
		if err != nil {
			fmt.Fprintf(stderr, "ppatcvet: %v\n", err)
			return 2
		}
		nested, err := gitNestedModules(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "ppatcvet: %v\n", err)
			return 2
		}
		patterns = changedDirPatterns(files, nested)
		if len(patterns) == 0 {
			if *format == "json" {
				fmt.Fprintln(stdout, "[]")
			}
			fmt.Fprintf(stderr, "ppatcvet: no Go files changed since %s\n", *changed)
			return 0
		}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "ppatcvet: %v\n", err)
		return 2
	}

	diags := analysis.Run(pkgs, analyzers)
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "ppatcvet: %v\n", err)
			return 2
		}
	case "github":
		for _, d := range diags {
			fmt.Fprintln(stdout, githubAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if *format != "json" {
			fmt.Fprintf(stderr, "ppatcvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
