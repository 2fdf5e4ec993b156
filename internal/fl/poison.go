//go:build poisonrecycle

package fl

// Built with -tags poisonrecycle, Recycle fills every buffer with NaN, so
// a buffer read after its last reader handed it back turns the model into
// NaN instead of silently into another client's delta.
func init() { poisonRecycled = true }
