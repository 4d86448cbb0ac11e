package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// shapeSeed fixes the *shapes* of the paper query sets (which positions
// repeat a label, which Pre/Post coincide with R). The run seed only
// permutes the label alphabet under those shapes: RMAT labels are
// assigned uniformly, so a permuted instance is statistically the same
// workload, while freely drawn shapes move response times by ±10% from
// seed to seed (duplicates inside a set become memo hits) and would
// drown a 10% regression bound.
const shapeSeed = 1

// pageLimit is the page size every /query request asks for.
const pageLimit = 1000

// updatesPerRound is the size of each serve-churn update batch.
const updatesPerRound = 8

// inputs is everything one workload run feeds the program under test,
// generated from the seed alone.
type inputs struct {
	graph *graph.Graph
	// sets groups the pool by shared closure body, for paper-batch;
	// stream-dense has one set per query.
	sets [][]rpq.Expr
	// pool is sets flattened: the query pool of the HTTP workloads.
	pool []rpq.Expr
	// requests is serve-hot's script, one slice per client.
	requests [][]hotRequest
	// rounds is serve-churn's update script.
	rounds [][]core.GraphUpdate
}

// hotRequest is one scripted serve-hot request: a pool index and the
// page position as a fraction of the result, resolved to an offset once
// the oracle knows the result size.
type hotRequest struct {
	query int
	frac  float64
}

// subSeed derives an independent generator stream from the run seed.
func subSeed(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// permutedLabels returns g's label names in a seed-chosen order.
func permutedLabels(g *graph.Graph, seed int64) []string {
	names := append([]string(nil), g.Dict().Names()...)
	sort.Strings(names)
	subSeed(seed, 1).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// paperInputs builds the RMAT_3 graph and the 3 sets x 4 RPQs
// (Pre.R+.Post, shared R of length 1/2/3) that paper-batch, serve-hot
// and serve-churn share.
func paperInputs(scale int, seed int64) (*inputs, error) {
	g, err := datagen.PaperRMATN(3, scale, seed)
	if err != nil {
		return nil, err
	}
	sets, err := workload.GenerateOver(permutedLabels(g, seed), workload.DefaultConfig(3, shapeSeed))
	if err != nil {
		return nil, err
	}
	in := &inputs{graph: g}
	for _, s := range sets {
		in.addSet(s.Queries[:4])
	}
	return in, nil
}

// denseInputs builds stream-dense's RMAT_5 graph (degree per label 8)
// and its pool of 8 closure-heavy queries.
func denseInputs(scale int, seed int64) (*inputs, error) {
	g, err := datagen.PaperRMATN(5, scale, seed)
	if err != nil {
		return nil, err
	}
	l := permutedLabels(g, seed)
	sets, err := workload.GenerateOver(l, workload.Config{
		NumSets: 2, MaxRPQs: 2, RLengths: []int{1, 2}, Star: true, Seed: shapeSeed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{graph: g}
	for _, s := range sets {
		for _, q := range s.Queries {
			in.addSet([]rpq.Expr{q})
		}
	}
	for _, text := range []string{
		fmt.Sprintf("(%s|%s)+", l[0], l[1]),
		fmt.Sprintf("%s.(%s|%s)*.%s", l[2], l[0], l[1], l[3]),
		fmt.Sprintf("%s.(%s.%s)*", l[0], l[1], l[2]),
		fmt.Sprintf("%s.%s+.%s|%s.(%s.%s)+.%s", l[0], l[1], l[2], l[3], l[1], l[2], l[0]),
	} {
		q, err := rpq.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("stream-dense pool: %w", err)
		}
		in.addSet([]rpq.Expr{q})
	}
	return in, nil
}

func (in *inputs) addSet(qs []rpq.Expr) {
	in.sets = append(in.sets, qs)
	in.pool = append(in.pool, qs...)
}

// addHotScript draws serve-hot's per-client request scripts.
func (in *inputs) addHotScript(seed int64, clients, perClient int) {
	in.requests = make([][]hotRequest, clients)
	for c := range in.requests {
		rng := subSeed(seed, 100+int64(c))
		script := make([]hotRequest, perClient)
		for i := range script {
			script[i] = hotRequest{query: rng.Intn(len(in.pool)), frac: rng.Float64()}
		}
		in.requests[c] = script
	}
}

// edgeKey identifies one labelled edge in the update script's mirror.
type edgeKey struct {
	src, dst graph.VID
	label    int
}

// addChurnScript draws serve-churn's update script: round r (1-based)
// is 8 inserts when odd, 6 inserts + 2 deletes of edges that exist at
// that point when even, with uniform endpoints. Labels rotate instead
// of being drawn: every round inserts under all four labels and the
// deletes walk the alphabet, so which cached structures a round
// carries, patches or drops is the same from seed to seed up to the
// seeded label permutation, and only then are the latencies of two
// seeds comparable. The generator mirrors the edge set so a delete
// always names a live edge.
func (in *inputs) addChurnScript(seed int64, rounds int) {
	rng := subSeed(seed, 200)
	labels := permutedLabels(in.graph, seed)
	labelIndex := map[string]int{}
	for i, l := range labels {
		labelIndex[l] = i
	}
	live := make([][]edgeKey, len(labels))
	present := map[edgeKey]bool{}
	add := func(k edgeKey) {
		if !present[k] {
			present[k] = true
			live[k.label] = append(live[k.label], k)
		}
	}
	in.graph.Edges(func(e graph.Edge) bool {
		add(edgeKey{e.Src, e.Dst, labelIndex[in.graph.Dict().Name(e.Label)]})
		return true
	})
	n := in.graph.NumVertices()
	in.rounds = make([][]core.GraphUpdate, rounds)
	for r := range in.rounds {
		deletes := 0
		if (r+1)%2 == 0 {
			deletes = 2
		}
		batch := make([]core.GraphUpdate, 0, updatesPerRound)
		for i := 0; i < updatesPerRound-deletes; i++ {
			k := edgeKey{graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), (r + i) % len(labels)}
			add(k)
			batch = append(batch, core.InsertEdge(k.src, labels[k.label], k.dst))
		}
		for i := 0; i < deletes; i++ {
			l := (r + i) % len(labels)
			at := rng.Intn(len(live[l]))
			k := live[l][at]
			live[l][at] = live[l][len(live[l])-1]
			live[l] = live[l][:len(live[l])-1]
			delete(present, k)
			batch = append(batch, core.DeleteEdge(k.src, labels[k.label], k.dst))
		}
		in.rounds[r] = batch
	}
}

// canonical serialises the inputs; two generations from one seed must
// produce identical bytes.
func (in *inputs) canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "graph %d %d\n", in.graph.NumVertices(), in.graph.NumEdges())
	in.graph.Edges(func(e graph.Edge) bool {
		fmt.Fprintf(&b, "%d %s %d\n", e.Src, in.graph.Dict().Name(e.Label), e.Dst)
		return true
	})
	for _, q := range in.pool {
		fmt.Fprintf(&b, "query %s\n", q)
	}
	for c, script := range in.requests {
		for _, r := range script {
			fmt.Fprintf(&b, "request %d %d %v\n", c, r.query, r.frac)
		}
	}
	for r, batch := range in.rounds {
		for _, u := range batch {
			fmt.Fprintf(&b, "update %d %s %d %s %d\n", r, u.Op, u.Src, u.Label, u.Dst)
		}
	}
	return b.Bytes()
}

// graphFingerprint folds a graph's edges into one value: each label's
// edges chain in (src, dst) order, and the per-label chains combine by
// label name, so the value does not depend on label interning order.
// serve-churn compares it across a store close and reopen.
func graphFingerprint(g *graph.Graph) uint64 {
	chains := make([]uint64, g.NumLabels())
	g.Edges(func(e graph.Edge) bool {
		chains[e.Label] = foldPair(chains[e.Label], e.Src, e.Dst)
		return true
	})
	fp := uint64(g.NumVertices())
	for l, c := range chains {
		fp ^= mix(c ^ uint64(labelHash(g.Dict().Name(graph.LID(l)))))
	}
	return fp
}

func labelHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// mix is a splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// foldPair chains one pair into an order-sensitive fingerprint: the
// running value is mixed in, so the same pairs in another order
// fingerprint differently.
func foldPair(fp uint64, src, dst graph.VID) uint64 {
	return mix(fp ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
}
