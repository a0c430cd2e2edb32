// Package lib is the fixture's library: one function the program calls,
// and one only an example calls.
package lib

// Area is reached from the program's main.
func Area(side int) int { return side * side }

// Demo is reached only from examples/demo, and an example is no program.
func Demo() string { return "demo" }
