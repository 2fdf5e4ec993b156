// Command tool is the corpus's main package: it counts as a caller and is
// never a target.
package main

import (
	"unusedcorpus/app"
	"unusedcorpus/lib"
)

func main() {
	lib.FromMain()
	println(app.Run())
}
