package main

import "lib"

func main() {
	var r lib.Runner = lib.NewLive()
	println(r.Run())
}
