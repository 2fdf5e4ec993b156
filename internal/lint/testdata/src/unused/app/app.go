// Package app calls into lib from a non-test file.
package app

import "unusedcorpus/lib"

// Run is called only by the main package.
func Run() int {
	lib.Stale()
	return lib.Used(lib.Config{Size: 3})
}
