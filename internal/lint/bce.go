package lint

import (
	"bufio"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// This file implements the bounds-check-elimination (BCE) baseline: the
// compiler's -d=ssa/check_bce debug output lists every array/slice
// access it could NOT prove in-bounds, and promlint -bce diffs those
// counts per file against a committed baseline. A kernel edit that
// reintroduces bounds checks in an inner loop fails the diff before it
// costs throughput. Counts only — line numbers shift on every edit, but
// a count increase in a kernel file is exactly the regression signal.

// DefaultBCEBaselinePath is the committed baseline, relative to the
// module root.
const DefaultBCEBaselinePath = "internal/lint/testdata/bce_baseline.txt"

// BCECounts maps file -> check kind ("IsInBounds"/"IsSliceInBounds") ->
// number of compiler-reported unproven accesses.
type BCECounts map[string]map[string]int

// KernelPackages is the package set whose bounds checks -bce counts: the
// per-iteration compute and communication kernels of the solver.
func KernelPackages() []string {
	return []string{
		"prometheus/internal/sparse",
		"prometheus/internal/la",
		"prometheus/internal/smooth",
		"prometheus/internal/krylov",
		"prometheus/internal/multigrid",
		"prometheus/internal/par",
		"prometheus/internal/pool",
	}
}

// BCEReport compiles the kernel packages with the check_bce debug flag
// and returns the parsed counts. dir is the module root; pkgs defaults
// to KernelPackages(). The Go build cache replays compiler diagnostics,
// so repeated runs are cheap and still complete.
func BCEReport(dir string, pkgs []string, tags string) (BCECounts, error) {
	if pkgs == nil {
		pkgs = KernelPackages()
	}
	args := []string{"build"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	for _, p := range pkgs {
		args = append(args, fmt.Sprintf("-gcflags=%s=-d=ssa/check_bce/debug=1", p))
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go build for BCE report failed: %v\n%s", err, out)
	}
	return ParseBCEOutput(string(out)), nil
}

// ParseBCEOutput extracts per-file bounds-check counts from the
// compiler's check_bce diagnostic stream, whose payload lines look like
//
//	internal/sparse/csr.go:107:12: Found IsInBounds
//
// interleaved with "# package" headers.
func ParseBCEOutput(out string) BCECounts {
	counts := make(BCECounts)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		kindIdx := strings.Index(line, ": Found ")
		if kindIdx < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		kind := strings.TrimSpace(line[kindIdx+len(": Found "):])
		if kind != "IsInBounds" && kind != "IsSliceInBounds" {
			continue
		}
		file := line[:strings.IndexByte(line, ':')]
		if counts[file] == nil {
			counts[file] = make(map[string]int)
		}
		counts[file][kind]++
	}
	return counts
}

// FormatBCEBaseline renders counts in the committed baseline format:
// one "file kind count" triple per line, sorted, with a header comment.
func FormatBCEBaseline(counts BCECounts) string {
	var b strings.Builder
	b.WriteString("# promlint -bce baseline: unproven bounds checks per kernel file.\n")
	b.WriteString("# Regenerate with: go run ./cmd/promlint -bce-update\n")
	var files []string
	for f := range counts {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		var kinds []string
		for k := range counts[f] {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%s %s %d\n", f, k, counts[f][k])
		}
	}
	return b.String()
}

// ParseBCEBaseline parses the committed baseline format.
func ParseBCEBaseline(data string) (BCECounts, error) {
	counts := make(BCECounts)
	sc := bufio.NewScanner(strings.NewReader(data))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("lint: BCE baseline line %d: want \"file kind count\", got %q", lineNo, line)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("lint: BCE baseline line %d: bad count %q", lineNo, fields[2])
		}
		if counts[fields[0]] == nil {
			counts[fields[0]] = make(map[string]int)
		}
		counts[fields[0]][fields[1]] = n
	}
	return counts, nil
}

// DiffBCEBaseline compares current counts against the baseline and
// returns human-readable regressions (new checks) and improvements
// (eliminated checks). The tree is acceptable iff regressions is empty;
// improvements mean the baseline should be regenerated to lock them in.
func DiffBCEBaseline(baseline, current BCECounts) (regressions, improvements []string) {
	keys := func(c BCECounts) []string {
		var out []string
		for f, kinds := range c {
			for k := range kinds {
				out = append(out, f+"\x00"+k)
			}
		}
		return out
	}
	seen := make(map[string]bool)
	for _, key := range append(keys(baseline), keys(current)...) {
		if seen[key] {
			continue
		}
		seen[key] = true
		parts := strings.SplitN(key, "\x00", 2)
		f, k := parts[0], parts[1]
		was, now := baseline[f][k], current[f][k]
		switch {
		case now > was:
			regressions = append(regressions, fmt.Sprintf("%s: %s %d -> %d", f, k, was, now))
		case now < was:
			improvements = append(improvements, fmt.Sprintf("%s: %s %d -> %d", f, k, was, now))
		}
	}
	sort.Strings(regressions)
	sort.Strings(improvements)
	return regressions, improvements
}
