// Command reach is the reachability census's fixture: each way a function
// is reached other than by a plain call, one dead function, and a library
// function (lib.Demo) that only an example reaches.
package main

import (
	"fmt"

	"reach/lib"
)

type shape interface{ area() int }

type square struct{ side int }

// area is reached only through the shape interface.
func (s square) area() int { return s.side * s.side }

// String is reached only through fmt's Stringer.
func (s square) String() string { return fmt.Sprint("square ", s.side) }

type circle struct{ r int }

// area is the fixture's one dead function: only the assertion below
// names circle, and an assertion is no root.
func (c *circle) area() int { return 3 * c.r * c.r }

var _ shape = (*circle)(nil)

// sum is generic; main calls an instance of it.
func sum[T int | float64](xs ...T) (s T) {
	for _, x := range xs {
		s += x
	}
	return s
}

type box[T any] struct{ v T }

// get is a method of a generic type; main calls it on an instance.
func (b box[T]) get() T { return b.v }

type counter struct{ n int }

// inc is reached only as a method value.
func (c *counter) inc() { c.n++ }

func main() {
	var s shape = square{2}
	c := &counter{}
	bump := c.inc
	bump()
	fmt.Println(s.area(), s, sum(1, 2), box[int]{3}.get(), c.n, lib.Area(2))
}
