// Social-network friend recommendation — one of the paper's motivating
// applications (Section I), extended with live ingest.
//
// A synthetic follower graph carries "follows", "mentions" and "blocks"
// edges. Three product teams run overlapping RPQ dashboards against it:
//
//	reach      follows.follows+            who is in my extended reach?
//	influencer mentions.follows+           whose mentions reach far?
//	recommend  follows.follows+.mentions   friends-of-friends worth suggesting
//
// All three share the Kleene sub-query follows+, so one reduced
// transitive closure serves the whole dashboard. The program first
// compares RTCSharing with evaluating each query independently — then
// keeps the dashboard alive while new edges stream in through
// Engine.ApplyUpdates: each update batch bumps the engine onto a new
// graph epoch, dropping the follows+ structure (rebuilt by the next
// dashboard pass) and carrying everything the batch didn't touch,
// instead of recomputing the world.
//
// Run with: go run ./examples/social
package main

import (
	"fmt"
	"math/rand"
	"time"

	"rtcshare"
)

func main() {
	// A scale-free follower graph: 2048 users, 16k edges over 3 labels.
	g, err := rtcshare.GenerateRMAT(rtcshare.RMATConfig{
		Vertices: 2048,
		Edges:    16384,
		Labels:   3,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	// RMAT names labels l0, l1, l2; give them social meanings by mapping
	// the dashboard queries onto them.
	const (
		follows  = "l0"
		mentions = "l1"
		blocks   = "l2"
	)
	fmt.Printf("social graph: %s\n\n", g.Stats())

	dashboard := []struct{ name, query string }{
		{"reach", follows + "." + follows + "+"},
		{"influencer", mentions + "." + follows + "+"},
		{"recommend", follows + "." + follows + "+." + mentions},
		{"safe-reach", follows + "." + follows + "+." + blocks + "?"},
	}

	runDashboard := func(engine *rtcshare.Engine) {
		for _, q := range dashboard {
			res, err := engine.EvaluateQuery(q.query)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-10s %-28s %8d pairs\n", q.name, q.query, res.Len())
		}
	}

	for _, strategy := range []rtcshare.Strategy{rtcshare.NoSharing, rtcshare.RTCSharing} {
		engine := rtcshare.NewEngine(g, rtcshare.Options{Strategy: strategy})
		start := time.Now()
		fmt.Printf("[%s]\n", strategy)
		runDashboard(engine)
		st := engine.Stats()
		fmt.Printf("  wall=%v engine split: shared=%v join=%v remainder=%v hits=%d\n\n",
			time.Since(start).Round(time.Microsecond),
			st.SharedData.Round(time.Microsecond), st.PreJoin.Round(time.Microsecond),
			st.Remainder.Round(time.Microsecond), st.CacheHits)
	}

	// Live ingest: the dashboard engine stays up while follower edges
	// stream in. Every batch lands through ApplyUpdates — the follows+
	// RTC is dropped and rebuilt once by the next pass, cached relations
	// over other labels are carried across the epoch untouched, and queries
	// running concurrently would keep answering against the epoch they
	// started on.
	engine := rtcshare.NewEngine(g, rtcshare.Options{})
	runDashboard(engine)
	rng := rand.New(rand.NewSource(99))
	fmt.Println("\nstreaming new follows/mentions edges:")
	for batch := 0; batch < 3; batch++ {
		var updates []rtcshare.GraphUpdate
		for i := 0; i < 64; i++ {
			src := rtcshare.VID(rng.Intn(2048))
			dst := rtcshare.VID(rng.Intn(2048))
			updates = append(updates, rtcshare.InsertEdge(src, follows, dst))
		}
		// A retraction is handled like an insert: the affected structures
		// drop and are recomputed on demand.
		if batch == 2 {
			updates = append(updates, rtcshare.DeleteEdge(updates[0].Src, follows, updates[0].Dst))
		}
		start := time.Now()
		res, err := engine.ApplyUpdates(updates)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\nepoch %d: +%d/-%d edges in %v (structures: %d carried, %d dropped; relations: %d carried)\n",
			res.Epoch, res.Inserted, res.Deleted, time.Since(start).Round(time.Microsecond),
			res.Carried, res.Dropped, res.RelCarried)
		runDashboard(engine)
	}

	// Top recommendations for one user: the result's run for source 42,
	// read straight out of the sealed relation in ascending order.
	res, err := engine.EvaluateQuery(follows + "." + follows + "+." + mentions)
	if err != nil {
		panic(err)
	}
	count := 0
	fmt.Println("\nsample recommendations for user 42:")
	for _, dst := range res.DstsOf(42) {
		if dst == 42 {
			continue
		}
		fmt.Printf("  suggest user %d\n", dst)
		if count++; count == 5 {
			break
		}
	}
	if count == 0 {
		fmt.Println("  (user 42 has no extended network in this draw)")
	}
}
