package core

import (
	"context"
	"fmt"

	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// WitnessPath is one shortest label-path witnessing that (Src, Dst) is
// in a query's result at graph epoch Epoch: following Labels from Src
// along graph edges (inverse steps spelled "^label" walk an edge
// backwards) reaches Dst, and the label word matches the query. A
// zero-step witness (Src == Dst, the query matching the empty word) has
// an empty Labels slice.
type WitnessPath struct {
	Src    graph.VID `json:"src"`
	Dst    graph.VID `json:"dst"`
	Labels []string  `json:"labels"`
	Epoch  uint64    `json:"epoch"`
}

// Witness reconstructs one shortest (by edge count) label-path
// witnessing (src, dst) ∈ Q_G against the engine's current graph
// version, or ok=false when the pair is not in the result. The search
// is a BFS over the (vertex, automaton-state) product with parent
// tracking — provenance re-traced from the same compiled automaton the
// evaluator caches, building no new shared structures — so a witness
// probe never perturbs the closure cache or the epoch migration.
func (e *Engine) Witness(ctx context.Context, q rpq.Expr, src, dst graph.VID) (wp WitnessPath, ok bool, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return WitnessPath{}, false, cerr
		}
	}
	v := e.version()
	n := v.g.NumVertices()
	if src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return WitnessPath{}, false, fmt.Errorf("core: witness pair (%d, %d) outside vertex space [0, %d)", src, dst, n)
	}
	defer func() {
		r := recover()
		asPanicError(q, r, &err)
		if err != nil {
			ok = false
		}
	}()
	ev, key := v.acquireEvaluator(q)
	defer v.releaseEvaluator(key, ev)
	labels, found := ev.Witness(src, dst)
	if !found {
		return WitnessPath{}, false, nil
	}
	wp = WitnessPath{Src: src, Dst: dst, Epoch: v.epoch, Labels: make([]string, len(labels))}
	for i, l := range labels {
		wp.Labels[i] = l.String()
	}
	return wp, true, nil
}
