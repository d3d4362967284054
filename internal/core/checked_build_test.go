//go:build ihtlchecked

package core

import (
	"testing"

	"ihtl/internal/sched"
)

// TestCheckedBuildAssertsPartition runs only under -tags=ihtlchecked,
// where BuildWith asserts the partition invariant (checkEdgePartition)
// on every graph it builds: the sequential and parallel builds of the
// differential graphs must all pass it.
func TestCheckedBuildAssertsPartition(t *testing.T) {
	if !checkedBuild {
		t.Fatal("ihtlchecked build without checkedBuild")
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	for name, g := range diffGraphs(t) {
		for _, p := range []*sched.Pool{nil, pool} {
			if _, err := BuildWith(g, Params{HubsPerBlock: 64}, p); err != nil {
				t.Fatalf("%s (pool %v): %v", name, p != nil, err)
			}
		}
	}
}
