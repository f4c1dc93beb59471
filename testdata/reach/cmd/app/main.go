// Command app is the fixture's only root.
package main

import (
	"container/heap"
	"fmt"

	"reach/lib"
)

func main() {
	q := &lib.Queue{}
	heap.Push(q, 3)
	fmt.Println(lib.Run(lib.Config{Set: 2}), heap.Pop(q))
}
