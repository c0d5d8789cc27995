//go:build promdebug

package topo

import (
	"reflect"
	"testing"

	"prometheus/internal/par"
)

// TestParallelIdentifyFacesCollectiveTrace is par's
// TestCollectiveTraceUniform for the protocol that lives here: on 1, 2, 3
// and 8 ranks every rank runs the same collective sequence (and, Run
// checking it in this build, leaves no message behind).
func TestParallelIdentifyFacesCollectiveTrace(t *testing.T) {
	m, facets, adj := cube(4)
	want := []string{"barrier", "allreduce-intsum"}
	for _, p := range []int{1, 2, 3, 8} {
		vertOwner := make([]int, m.NumVerts())
		for v := range vertOwner {
			vertOwner[v] = v % p
		}
		comm := par.NewComm(p)
		ParallelIdentifyFaces(comm, facets, adj, FacetOwnerFromVerts(facets, vertOwner), DefaultTOL)
		for rank := 0; rank < p; rank++ {
			if got := comm.CollectiveTrace(rank); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d: rank %d trace %v, want %v", p, rank, got, want)
			}
		}
	}
}
