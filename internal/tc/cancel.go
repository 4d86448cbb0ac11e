package tc

import "rtcshare/internal/graph"

// Checkpoint is a cooperative-cancellation probe threaded into closure
// construction: the BFS calls it with an approximate count of rows
// (closure pairs) produced since the last call, and a non-nil return
// aborts the build with that error. The engine layer passes an
// amortized context poll; nil means uncancellable and costs nothing.
//
// A Checkpoint is invoked only from the goroutine that called the
// closure function, so implementations need not be safe for concurrent
// use.
type Checkpoint func(rows int) error

// BFSCheck is BFS with a cancellation checkpoint consulted once per
// source vertex.
func BFSCheck(d *graph.DiGraph, check Checkpoint) (*Closure, error) {
	return bfs(d, check)
}

// checkRows consults a possibly-nil checkpoint.
func checkRows(check Checkpoint, rows int) error {
	if check == nil {
		return nil
	}
	return check(rows)
}
