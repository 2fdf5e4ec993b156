// Package transport is the corpus stand-in for the engine's transport
// layer: an async-by-contract Env whose Send enqueues and After schedules.
package transport

// Addr identifies a node.
type Addr string

// Env is the node's handle on the outside world. Send and After are the
// asynchronous boundary: the call graph never resolves them into concrete
// implementations, so nothing reached through them is synchronous.
type Env interface {
	Send(to Addr, msg any)
	After(ticks int, f func())
}

// Every runs f every ticks until it returns false: a loop of After calls,
// so f always runs on a later tick, never in its caller's frame.
func Every(env Env, ticks int, f func() bool) {
	var run func()
	run = func() {
		if f() {
			env.After(ticks, run)
		}
	}
	env.After(ticks, run)
}
