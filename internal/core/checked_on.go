//go:build ihtlchecked

package core

// checkedBuild enables the invariant checks too costly for production
// builds (see checkEdgePartition); set by -tags=ihtlchecked, the tag
// that also swaps the unchecked kernel accessors for checked ones.
const checkedBuild = true
