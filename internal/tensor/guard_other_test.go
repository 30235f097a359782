//go:build !linux

package tensor

import "testing"

// Without guard pages (see guard_linux_test.go) the placements are plain
// allocations: the specs still run, the over-read check does not.

func guarded[T any](_ testing.TB, n, slack int) []T { return make([]T, n, n+slack) }

func guardedStart[T any](_ testing.TB, n int) []T { return make([]T, n) }

func faultFree(_ testing.TB, _ string, f func()) { f() }
