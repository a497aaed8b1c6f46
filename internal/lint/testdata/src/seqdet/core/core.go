package core

import "fmt"

type journal struct{ lines []string }

func (j *journal) Append(s string) { j.lines = append(j.lines, s) }

// Map range feeding stdout: byte order changes every run.
func emit(m map[string]int) {
	for k := range m { // want `map iteration order is randomized`
		fmt.Println(k)
	}
}

// Map range feeding a journal method: same problem.
func record(j *journal, m map[string]int) {
	for k := range m { // want `map iteration order is randomized`
		j.Append(k)
	}
}

// Map range feeding a channel: the consumer sees a random order.
func stream(m map[string]int, out chan<- string) {
	for k := range m { // want `map iteration order is randomized`
		out <- k
	}
}

// Plain collection is the sanctioned pattern (sort afterwards).
func collect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Ranging a slice is always ordered; sinks are fine.
func emitSorted(keys []string) {
	for _, k := range keys {
		fmt.Println(k)
	}
}

// Two ready comm cases: the runtime flips a coin.
func waitEither(a, b chan int) int {
	select { // want `select with 2 comm cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Non-blocking poll: one comm case plus default stays legal.
func poll(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// A reasoned suppression on the select is counted, not reported.
func waitSuppressed(a, b chan int) {
	//lint:ignore ecolint/nodeterminism fixture: both arms drain to the same sink
	select {
	case <-a:
	case <-b:
	}
}
