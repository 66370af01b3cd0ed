// Command deadcodemain is the root the deadcode testdata package is
// reached from.
package main

import (
	"fmt"

	"deadcode"
)

func main() {
	go deadcode.Spawned()
	go func() { deadcode.InLiteral() }()
	s := deadcode.NewShape(2)
	fmt.Println(s.Area(), s.Perimeter(), deadcode.Color(1), deadcode.Level(2))
}
