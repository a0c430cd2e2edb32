// Command demo is the fixture's example. Its main is no root, so what it
// calls counts as reached by no program, and its own functions are not
// reported.
package main

import (
	"fmt"

	"reach/lib"
)

// greet is the example's own function.
func greet() string { return lib.Demo() }

func main() { fmt.Println(greet()) }
