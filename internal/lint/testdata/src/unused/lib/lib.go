// Package lib is the unused corpus's library: what app, the main package
// and lib_test.go use of it decides what is reported.
package lib

import "fmt"

// Config is set by app's composite literal, except Debug, which only
// lib_test.go sets.
type Config struct {
	Size  int
	Debug bool // want "Config.Debug has no non-test user"
}

// Used is called from another package's non-test file.
func Used(c Config) int { return c.Size + helper() }

func helper() int { return 1 }

// FromMain is called only by the main package.
func FromMain() {}

// OnlyTested is called only from lib_test.go.
func OnlyTested() int { return deadHelper() } // want "OnlyTested has no non-test user"

// deadHelper is called only from a dead function.
func deadHelper() int { return ping(3) } // want "deadHelper has no non-test user"

// ping and pong call each other and nothing live calls either.
func ping(n int) int { // want "ping has no non-test user"
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) } // want "pong has no non-test user"

// Shape is a module interface.
type Shape interface{ Area() float64 }

// Square satisfies Shape and fmt.Stringer, which nobody calls it through
// here: both methods are exempt. Scale satisfies nothing.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) String() string { return fmt.Sprintf("square(%v)", s.Side) }

func (s Square) Scale(k float64) Square { return Square{s.Side * k} } // want "Square.Scale has no non-test user"

// Kept has no caller and stays on purpose; what it calls is live.
//
//lint:ignore unused the corpus's reasoned suppression
func Kept() int { return keptHelper() }

func keptHelper() int { return 2 }

// Stale is called by app, so its directive suppresses nothing.
//
//lint:ignore unused a stale suppression // want "directive suppresses nothing"
func Stale() {}
