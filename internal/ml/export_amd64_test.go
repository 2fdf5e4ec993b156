//go:build amd64

package ml

// SetSIMD switches the kernel dispatch for tests outside the package (the
// golden LocalTrainWS hashes run both paths) and returns the old setting.
func SetSIMD(on bool) (was bool) {
	was, hasSIMD = hasSIMD, on
	return was
}
