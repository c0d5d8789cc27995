// Command promlint is the project's custom static analyzer. It walks the
// module with the stdlib go/parser + go/types toolchain and enforces the
// solver-specific correctness rules (see internal/lint): float equality,
// library panic conventions, unchecked errors (including defer/go),
// exported API documentation, per-iteration allocations in kernel hot
// paths, and check.Enabled guards.
//
// Usage:
//
//	go run ./cmd/promlint [-tags taglist] [-rules list] [-json] [packages]
//	go run ./cmd/promlint -bce [-tags taglist]
//	go run ./cmd/promlint -bce-update [-tags taglist]
//
// Packages default to ./... . Exit status is 0 when the tree is clean,
// 1 when findings are reported, 2 on a load or type-check failure, and
// 3 when -bce detects a bounds-check regression against the committed
// baseline (internal/lint/testdata/bce_baseline.txt).
// Findings are suppressed in place with "//promlint:ignore <rule>
// <reason>" on the offending line or the line above; -json reports how
// many findings the directives silenced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"prometheus/internal/lint"
)

func main() {
	tags := flag.String("tags", "", "build tags forwarded to package loading")
	jsonOut := flag.Bool("json", false, "emit findings and suppression accounting as JSON")
	rulesFlag := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	bce := flag.Bool("bce", false, "diff kernel bounds-check counts against the committed baseline")
	bceUpdate := flag.Bool("bce-update", false, "regenerate the bounds-check baseline file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: promlint [-tags taglist] [-rules list] [-json] [packages]\n")
		fmt.Fprintf(os.Stderr, "       promlint -bce | -bce-update [-tags taglist]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *bce || *bceUpdate {
		os.Exit(runBCE(*tags, *bceUpdate))
	}

	rules, err := selectRules(*rulesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(".", flag.Args(), *tags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		os.Exit(2)
	}
	kept, suppressed := lint.RunAll(pkgs, rules)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lint.NewJSONReport(kept, suppressed)); err != nil {
			fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, iss := range kept {
			fmt.Println(iss)
		}
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "promlint: %d finding(s), %d suppressed, in %d package(s)\n",
			len(kept), len(suppressed), len(pkgs))
		os.Exit(1)
	}
}

// selectRules filters DefaultRules by the -rules flag. Unknown names are
// rejected with the valid rule list in the message (a typo must not
// silently shrink the rule set), empty list segments are skipped, and a
// selection that ends up empty is an error rather than a vacuous clean run.
func selectRules(list string) ([]lint.Rule, error) {
	all := lint.DefaultRules()
	if list == "" {
		return all, nil
	}
	byName := make(map[string]lint.Rule, len(all))
	valid := make([]string, 0, len(all))
	for _, r := range all {
		byName[r.Name()] = r
		valid = append(valid, r.Name())
	}
	var out []lint.Rule
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q; valid rules: %s", name, strings.Join(valid, ", "))
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules %q selects no rules; valid rules: %s", list, strings.Join(valid, ", "))
	}
	return out, nil
}

// runBCE implements -bce (diff against baseline, exit 3 on regression)
// and -bce-update (rewrite the baseline).
func runBCE(tags string, update bool) int {
	current, err := lint.BCEReport(".", nil, tags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		return 2
	}
	if update {
		if err := os.WriteFile(lint.DefaultBCEBaselinePath, []byte(lint.FormatBCEBaseline(current)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
			return 2
		}
		fmt.Printf("promlint: wrote %s\n", lint.DefaultBCEBaselinePath)
		return 0
	}
	data, err := os.ReadFile(lint.DefaultBCEBaselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v (run promlint -bce-update to create it)\n", err)
		return 2
	}
	baseline, err := lint.ParseBCEBaseline(string(data))
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		return 2
	}
	regressions, improvements := lint.DiffBCEBaseline(baseline, current)
	for _, s := range improvements {
		fmt.Printf("improved: %s\n", s)
	}
	for _, s := range regressions {
		fmt.Printf("REGRESSION: %s\n", s)
	}
	switch {
	case len(regressions) > 0:
		fmt.Fprintf(os.Stderr, "promlint: %d bounds-check regression(s) vs %s\n",
			len(regressions), lint.DefaultBCEBaselinePath)
		return 3
	case len(improvements) > 0:
		fmt.Fprintf(os.Stderr, "promlint: bounds checks improved; regenerate the baseline with -bce-update to lock it in\n")
	}
	return 0
}
