package parallel

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"prometheus/internal/fem"
	"prometheus/internal/graph"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/obs"
	"prometheus/internal/perf"
)

// TestParallelMISStudy pins the section 4.2 study: set sizes across rank
// counts, each deterministic and maximal.
func TestParallelMISStudy(t *testing.T) {
	var b bytes.Buffer
	if err := ParallelMISStudy(&b); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, l := range strings.Split(b.String(), "\n") {
		have[strings.Join(strings.Fields(l), " ")] = true
	}
	for _, want := range []string{
		"serial 125 - yes", // Section 4.2
		"parallel p=2 108 yes yes",
		"parallel p=4 103 yes yes",
		"parallel p=8 98 yes yes",
		"parallel p=16 85 yes yes",
	} {
		if !have[want] {
			t.Errorf("output lacks the line %q", want)
		}
	}
}

// TestMeasuredHaloEfficiency pins the measured halo-SpMV phase behind
// promsolve -profile on a small elastic tangent: the counted flops,
// messages and bytes and the load balance they give.
func TestMeasuredHaloEfficiency(t *testing.T) {
	m := mesh.StructuredHex(4, 4, 4, 1, 1, 1, nil)
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	vertOwner := graph.RCB(m.Coords, 4)
	owner := make([]int, k.NRows)
	for i := range owner {
		owner[i] = vertOwner[i/3]
	}
	obs.Enable()
	defer obs.Disable()
	eff, err := MeasuredHaloEfficiency(k, owner, 4, 3, perf.PaperIBM())
	if err != nil {
		t.Fatal(err)
	}
	if eff.Flops != 118638 || eff.Msgs != 30 || eff.Bytes != 10512 || math.Abs(eff.Load-0.9773131672597865) > 1e-15 {
		t.Fatalf("flops %d msgs %d bytes %d load %v, want 118638 30 10512 0.9773131672597865",
			eff.Flops, eff.Msgs, eff.Bytes, eff.Load)
	}
}
