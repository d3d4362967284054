//go:build !ihtlchecked

// Package unchecked provides bounds-check-free slice access for the
// //ihtl:nobce kernels. The flipped push and sparse pull loops index
// by graph data — vertex IDs and CSR offsets — that no bounds-check-
// elimination analysis can prove in range, so in safe Go every gather
// and scatter in those loops pays a per-edge check. These helpers
// perform the access without it; the ihtlvet -bce gate then pins the
// annotated kernels bounds-check free.
//
// Safety rests on the construction invariants, not on luck: BuildIHTL
// produces indices below the lengths of the slices the kernels pair
// them with, and data of external origin (an engine file) must pass
// the readers' structural and range checks before any kernel touches
// it. Code outside the //ihtl:nobce kernel set must not use
// this package.
//
// Building with -tags=ihtlchecked swaps every helper for its checked
// equivalent (see checked.go), restoring index panics for debugging a
// suspect build or a new kernel.
package unchecked

import "unsafe"

// PtrAt returns &s[i] without a bounds check.
//
//ihtl:noalloc
func PtrAt[T any](s []T, i int) *T {
	var zero T
	return (*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), uintptr(i)*unsafe.Sizeof(zero)))
}

// At returns s[i] without a bounds check.
//
//ihtl:noalloc
func At[T any](s []T, i int) T { return *PtrAt(s, i) }

// SetAt performs s[i] = v without a bounds check.
//
//ihtl:noalloc
func SetAt[T any](s []T, i int, v T) { *PtrAt(s, i) = v }

// AddAt performs s[i] += v without a bounds check.
//
//ihtl:noalloc
func AddAt(s []float64, i int, v float64) { *PtrAt(s, i) += v }

// SliceAt returns s[i:i+n:i+n] without a bounds check.
//
//ihtl:noalloc
func SliceAt[T any](s []T, i, n int) []T { return unsafe.Slice(PtrAt(s, i), n) }
