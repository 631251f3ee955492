// Command vsnoop-lint runs the determinism static-analysis suite
// (maprange, wallclock) over the module. Usage:
//
//	vsnoop-lint [flags] [patterns]
//
//	vsnoop-lint ./...                     # whole module (the CI invocation)
//	vsnoop-lint ./internal/mesh           # report findings in one package
//	vsnoop-lint -json ./...               # machine-readable findings
//	vsnoop-lint -disable wallclock ./...  # skip one analyzer
//	vsnoop-lint -enable maprange ./...    # run exactly one analyzer
//
// The module is always loaded and type-checked whole; patterns only filter
// which packages findings are reported for. Exit codes: 0 clean,
// 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vsnoop/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("vsnoop-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vsnoop-lint [-json] [-enable a,b] [-disable a,b] [patterns]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-10s %s (waive: //lint:%s <reason>)\n", a.Name, a.Doc, a.WaiverKey)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "vsnoop-lint:", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "vsnoop-lint:", err)
		return 2
	}

	opts := lint.Options{
		Enabled:  nameSet(*enable),
		Disabled: nameSet(*disable),
	}
	if bad := unknownAnalyzers(opts); bad != "" {
		fmt.Fprintf(stderr, "vsnoop-lint: unknown analyzer %q (use -list)\n", bad)
		return 2
	}
	sel, err := selector(mod, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "vsnoop-lint:", err)
		return 2
	}
	opts.Selected = sel

	findings := lint.Run(mod, opts)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "vsnoop-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
		if n := len(findings); n > 0 {
			fmt.Fprintf(stderr, "vsnoop-lint: %d finding(s)\n", n)
		}
	}
	return lint.ExitCode(findings)
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod, mirroring the go tool.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found in or above the working directory")
		}
		dir = parent
	}
}

func nameSet(csv string) map[string]bool {
	if csv == "" {
		return nil
	}
	set := make(map[string]bool)
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			set[n] = true
		}
	}
	return set
}

func unknownAnalyzers(opts lint.Options) string {
	known := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		known[a.Name] = true
	}
	for _, set := range []map[string]bool{opts.Enabled, opts.Disabled} {
		for n := range set {
			if !known[n] {
				return n
			}
		}
	}
	return ""
}

// selector converts go-tool-style patterns into a package predicate.
// Patterns are module-root-relative: "./..." (or no patterns, or "...")
// selects everything; "./x/..." selects a subtree; "./x" one package.
func selector(mod *lint.Module, patterns []string) (func(string) bool, error) {
	if len(patterns) == 0 {
		return nil, nil // everything
	}
	type rule struct {
		path string
		tree bool
	}
	var rules []rule
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		tree := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			p, tree = rest, true
		} else if p == "..." {
			p, tree = ".", true
		}
		p = strings.TrimPrefix(p, "./")
		ip := mod.Path
		if p != "" && p != "." {
			if strings.HasPrefix(p, mod.Path) {
				ip = p
			} else {
				ip = mod.Path + "/" + p
			}
		}
		if !tree && mod.Lookup(ip) == nil {
			return nil, fmt.Errorf("pattern %q matches no loaded package", p)
		}
		rules = append(rules, rule{ip, tree})
	}
	return func(pkgPath string) bool {
		for _, r := range rules {
			if pkgPath == r.path || (r.tree && strings.HasPrefix(pkgPath, r.path+"/")) {
				return true
			}
			if r.tree && pkgPath == r.path {
				return true
			}
		}
		return false
	}, nil
}
