package perf

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPhaseTime(t *testing.T) {
	m := Machine{FlopRate: 1e6, Latency: 1e-3, Bandwidth: 1e6}
	flops := []int64{1e6, 2e6}
	msgs := []int64{0, 10}
	bytes := []int64{0, 1e6}
	tMax, tAvg := m.PhaseTime(flops, msgs, bytes)
	// Rank 1: 2 + 0.01 + 1 = 3.01 s; rank 0: 1 s.
	if math.Abs(tMax-3.01) > 1e-12 {
		t.Fatalf("tMax = %v", tMax)
	}
	if math.Abs(tAvg-(1+3.01)/2) > 1e-12 {
		t.Fatalf("tAvg = %v", tAvg)
	}
	// Nil comm counters.
	tMax, _ = m.PhaseTime(flops, nil, nil)
	if tMax != 2 {
		t.Fatalf("tMax = %v", tMax)
	}
	if x, y := m.PhaseTime(nil, nil, nil); x != 0 || y != 0 {
		t.Fatal("empty phase should be zero")
	}
}

func TestLoadBalance(t *testing.T) {
	if lb := LoadBalance([]int64{10, 10, 10}); lb != 1 {
		t.Fatalf("perfect balance = %v", lb)
	}
	if lb := LoadBalance([]int64{10, 20}); lb != 0.75 {
		t.Fatalf("lb = %v", lb)
	}
	if lb := LoadBalance(nil); lb != 1 {
		t.Fatal("empty")
	}
	if lb := LoadBalance([]int64{0, 0}); lb != 1 {
		t.Fatal("zero work")
	}
}

func TestDecompose(t *testing.T) {
	// Same iterations, same flops/unknown, same rate: all efficiencies 1.
	e := Decompose(20, 20, 1000, 8000, 100, 800, 1, 8, 34e6, 34e6, 1)
	for _, v := range []float64{e.EIs, e.EFs, e.Ec, e.Total} {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("decompose = %+v", e)
		}
	}
	// Super-linear convergence (fewer iterations at scale) gives EIs > 1,
	// as the paper observes.
	e = Decompose(29, 21, 1000, 8000, 100, 800, 1, 8, 34e6, 20e6, 0.9)
	if e.EIs <= 1 {
		t.Fatalf("EIs = %v", e.EIs)
	}
	if e.Ec >= 1 {
		t.Fatalf("Ec = %v", e.Ec)
	}
	if math.Abs(e.Total-e.EIs*e.EFs*e.Ec) > 1e-12 {
		t.Fatal("total mismatch")
	}
}

func TestPaperIBM(t *testing.T) {
	m := PaperIBM()
	if m.FlopRate != 34e6 {
		t.Fatalf("solve rate = %v", m.FlopRate)
	}
}

func TestPhases(t *testing.T) {
	p := NewPhases()
	p.Time("solve", func() { time.Sleep(time.Millisecond) })
	p.Add("solve", 2*time.Millisecond)
	p.Add("setup", time.Millisecond)
	if p.Wall["solve"] < 3*time.Millisecond {
		t.Fatalf("wall = %v", p.Wall["solve"])
	}
	names := p.Names()
	if len(names) != 2 || names[0] != "solve" || names[1] != "setup" {
		t.Fatalf("names = %v", names)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a    long-header") {
		t.Fatalf("header = %q", lines[0])
	}
	// All rows aligned to the same width.
	if len(lines[1]) < len("a    long-header") {
		t.Fatal("separator too short")
	}
}

func TestSum(t *testing.T) {
	if Sum([]int64{1, 2, 3}) != 6 {
		t.Fatal("sum")
	}
}
