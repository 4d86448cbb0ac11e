package core

import "rtcshare/internal/graph"

// NewAtEpoch returns an Engine over g whose graph epoch starts at epoch
// instead of 0, with an empty cache of its own pinned to that epoch. It
// is how internal/store boots an engine from a snapshot: the snapshot
// holds only the graph and its epoch, the write-ahead log replays on top
// through ApplyUpdates, and every shared structure is rebuilt on demand
// through the normal cache path.
func NewAtEpoch(g *graph.Graph, epoch uint64, opts Options) *Engine {
	return newEngine(g, epoch, opts)
}

// GraphEpoch returns the current graph version and its epoch, read from
// one pinned version so the pair is consistent even while an
// ApplyUpdates races the call. A snapshot writer should still exclude
// concurrent updates (store.Persistent serialises the two) so the
// captured epoch is the one the write-ahead log continues from.
func (e *Engine) GraphEpoch() (*graph.Graph, uint64) {
	v := e.version()
	return v.g, v.epoch
}
