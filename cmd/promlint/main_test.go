package main

import (
	"strings"
	"testing"

	"prometheus/internal/lint"
)

func TestSelectRulesDefault(t *testing.T) {
	rules, err := selectRules("")
	if err != nil {
		t.Fatalf("selectRules(\"\") error: %v", err)
	}
	if len(rules) != len(lint.DefaultRules()) {
		t.Fatalf("empty flag must select all %d rules, got %d", len(lint.DefaultRules()), len(rules))
	}
}

func TestSelectRulesByName(t *testing.T) {
	rules, err := selectRules(" float-equality , operator-seam ,")
	if err != nil {
		t.Fatalf("selectRules error: %v", err)
	}
	if len(rules) != 2 || rules[0].Name() != "float-equality" || rules[1].Name() != "operator-seam" {
		names := make([]string, len(rules))
		for i, r := range rules {
			names[i] = r.Name()
		}
		t.Fatalf("selected %v, want [float-equality operator-seam]", names)
	}
}

func TestSelectRulesUnknownListsValidNames(t *testing.T) {
	// shared-write was a rule until the ownership verifier was retired,
	// narrowing-discipline until the f32 storages were, the last four
	// until internal/par's protocol moved to its promdebug run-time
	// checks; a script still passing any of them must fail, not lint
	// with nothing.
	for _, unknown := range []string{"no-such-rule", "shared-write", "narrowing-discipline",
		"naked-type-assert", "comm-protocol", "collective-uniformity", "sendrecv-match"} {
		_, err := selectRules("float-equality," + unknown)
		if err == nil {
			t.Fatalf("unknown rule name %q must be rejected", unknown)
		}
		msg := err.Error()
		if !strings.Contains(msg, `"`+unknown+`"`) {
			t.Errorf("error %q does not name the offending rule", msg)
		}
		// The message must enumerate the valid rules so the typo is fixable
		// without reading the source.
		_, valid, _ := strings.Cut(msg, "valid rules: ")
		if got, want := len(strings.Split(valid, ", ")), len(lint.DefaultRules()); got != want {
			t.Errorf("error %q lists %d valid rules, want %d", msg, got, want)
		}
		for _, want := range []string{"float-equality", "sync-discipline", "operator-seam"} {
			if !strings.Contains(valid, want) {
				t.Errorf("error %q does not list valid rule %q", msg, want)
			}
		}
	}
}

func TestSelectRulesEmptySelection(t *testing.T) {
	for _, list := range []string{",", " , ,"} {
		if _, err := selectRules(list); err == nil {
			t.Errorf("selectRules(%q) must reject an empty selection", list)
		}
	}
}
