//go:build !ihtlchecked

package core

// checkedBuild is false outside -tags=ihtlchecked builds; see
// checked_on.go.
const checkedBuild = false
