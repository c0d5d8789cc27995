package lint

import "testing"

func TestMapOrder(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func flatten(sets map[int]bool, out []int) {
	k := 0
	for v := range sets {
		out[k] = v // line 6: flagged (map order leaks into the output slice)
		k++
	}
}

func gather(m map[string]int) []string {
	keys := []string{}
	for k := range m {
		keys = append(keys, k) // line 14: flagged (nondeterministic element order)
	}
	return keys
}

func fold(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v // order-insensitive accumulator: fine
	}
	return s
}

func invert(m map[string]int) map[int]string {
	inv := make(map[int]string)
	for k, v := range m {
		inv[v] = k // map writes commute: fine
	}
	return inv
}

func local(m map[string]int) {
	for k := range m {
		buf := make([]byte, 0, 8)
		buf = append(buf, k...) // buffer scoped to the body: fine
		_ = buf
	}
}

func sorted(m map[string]int, keys []string, out []int) {
	for i, k := range keys {
		out[i] = m[k] // range over the sorted key slice: fine
	}
}
`)
	rule := MapOrder{Packages: []string{"fixture"}}
	got := Run([]*Package{pkg}, []Rule{rule})
	if !sameLines(got, 6, 14) {
		t.Fatalf("map-order fired on lines %v, want [6 14]\n%v", lines(got), got)
	}

	// Outside the protected package set the rule is silent.
	cold := MapOrder{Packages: []string{"elsewhere"}}
	if got := Run([]*Package{pkg}, []Rule{cold}); len(got) != 0 {
		t.Fatalf("map-order must not fire outside its package set, got %v", got)
	}
}
