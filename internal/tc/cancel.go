package tc

import "rtcshare/internal/graph"

// Checkpoint is a cooperative-cancellation probe threaded into closure
// construction and product searches: the search calls it with the work
// done since the last call (pairs found plus edges walked or, on a
// bottom-up level, in-edges read), and a non-nil return aborts the
// build with that error. The
// engine layer passes an amortized context poll; nil means
// uncancellable and costs nothing.
//
// A Checkpoint is invoked only from the goroutine that called the
// closure function, so implementations need not be safe for concurrent
// use.
type Checkpoint func(rows int) error

// BFSCheck is BFS with a cancellation checkpoint consulted before each
// 64-source batch and after each level of its search.
func BFSCheck(d *graph.DiGraph, check Checkpoint) (*Closure, error) {
	return bfs(d, nil, check)
}

// checkRows consults a possibly-nil checkpoint.
func checkRows(check Checkpoint, rows int) error {
	if check == nil {
		return nil
	}
	return check(rows)
}
