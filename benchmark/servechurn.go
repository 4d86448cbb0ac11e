package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/server"
	"rtcshare/internal/store"
)

// snapshotEvery is the store's compaction policy in serve-churn: the
// WAL is fsynced per update batch and a snapshot is cut every 16.
const snapshotEvery = 16

// churnInstance is one booted persistent server.
type churnInstance struct {
	in      *inputs
	dir     string
	persist *store.Persistent
	s       *served
	openNS  time.Duration
}

// stop closes the server and the store, leaving the directory.
func (ci churnInstance) stop() error {
	ci.s.close()
	return ci.persist.Close()
}

func (ci churnInstance) teardown() {
	ci.stop()
	os.RemoveAll(ci.dir)
}

// updateBody renders one scripted batch as a POST /update body.
func updateBody(batch []core.GraphUpdate) []byte {
	req := server.UpdateRequest{Updates: make([]server.EdgeUpdate, len(batch))}
	for i, u := range batch {
		op := "insert"
		if u.Op == core.OpDeleteEdge {
			op = "delete"
		}
		req.Updates[i] = server.EdgeUpdate{Op: op, Src: u.Src, Label: u.Label, Dst: u.Dst}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain strings and ints: cannot fail
	}
	return body
}

// churnRound is what one measured round produced.
type churnRound struct {
	updateMS  float64
	requeryMS []float64
}

// churn drives the scripted rounds against one instance.
type churn struct {
	cfg    config
	ci     churnInstance
	orc    *oracle
	cl     *client
	chk    *checker
	tr     *tracer
	layers *layerSet
	// acked is the epoch of the last acknowledged update.
	acked uint64
}

// round applies script round r and re-asks every pool query once. The
// timed sequence (update, then the queries) runs back to back; the
// oracle catches up and the answers are checked afterwards.
func (c *churn) round(r int, traced bool) (churnRound, error) {
	var out churnRound
	in, tr := c.ci.in, c.tr
	if !traced {
		tr = nil
	}
	batch := in.rounds[r]
	before := c.ci.persist.Metrics().Store

	req := tr.request()
	t0 := time.Now()
	d, err := c.cl.post("/update", updateBody(batch))
	c.chk.op(err)
	if err != nil {
		return out, fmt.Errorf("round %d update: %w", r, err)
	}
	tr.record(0, req, "http.update", t0, d)
	out.updateMS = ms(d)
	var ur server.UpdateResponse
	if err := json.Unmarshal(c.cl.resp.Bytes(), &ur); err != nil {
		return out, fmt.Errorf("round %d update response: %w", r, err)
	}
	c.acked = ur.Epoch

	pages := make([]page, len(in.pool))
	for i, q := range in.pool {
		body := c.cl.queryBody(q.String(), pageLimit, 0)
		req := tr.request()
		t0 := time.Now()
		d, err := c.cl.post("/query", body)
		if err == nil {
			pages[i], err = scanPage(c.cl.resp.Bytes())
		}
		if err != nil {
			c.chk.op(err)
			return out, fmt.Errorf("round %d query %s: %w", r, q, err)
		}
		out.requeryMS = append(out.requeryMS, ms(d))
		if tr != nil {
			tr.record(0, req, "http.query", t0, d)
			h, err := decodeHeader(c.cl.resp.Bytes())
			if err != nil {
				return out, fmt.Errorf("round %d response header: %w", r, err)
			}
			stageSamples(h, d, c.layers)
			c.layers.sample("server.response_bytes", float64(c.cl.resp.Len()))
			// The same request again, in-process: by now a memo hit, so
			// this is the handler without evaluation or transport.
			t1 := time.Now()
			if hd, err := c.ci.s.inProcess("/query", body); err == nil {
				tr.record(0, req, "server.handler", t1, hd)
				c.layers.sample("server.handler_ns", ns(hd))
			}
		}
	}

	// Off the clock: the serial oracle applies the same batch and
	// re-evaluates the pool; every served answer must match it at the
	// same epoch.
	t0 = time.Now()
	if _, err := c.orc.engine.ApplyUpdates(batch); err != nil {
		return out, fmt.Errorf("oracle round %d: %w", r, err)
	}
	applied := time.Since(t0)
	if err := c.orc.refresh(); err != nil {
		return out, err
	}
	epoch := c.orc.engine.Epoch()
	if ur.Epoch != epoch {
		c.chk.violation(fmt.Errorf("round %d: update acknowledged at epoch %d, oracle is at %d", r, ur.Epoch, epoch))
	}
	for i, p := range pages {
		wantFP, wantCount := c.orc.pageFingerprint(i, 0)
		var err error
		if p.epoch != epoch || p.total != c.orc.rels[i].Len() || p.count != wantCount || p.fp != wantFP {
			err = fmt.Errorf("round %d %s: epoch %d total %d fp %x, oracle has epoch %d total %d fp %x",
				r, in.pool[i], p.epoch, p.total, p.fp, epoch, c.orc.rels[i].Len(), wantFP)
		}
		c.chk.op(err)
	}

	if tr != nil {
		l := c.layers
		l.sample("core.apply_updates_ns", ns(applied))
		l.sample("core.migrate_ns", ur.MigrateMillis*1e6)
		l.sample("graph.freeze_ns", ur.FreezeMillis*1e6)
		l.sample("store.commit_overhead_ns", ns(d)-(ur.MigrateMillis+ur.FreezeMillis)*1e6)
		l.count("core.carried", float64(ur.Carried))
		l.count("core.patched", float64(ur.Patched))
		l.count("core.dropped", float64(ur.Dropped))
		l.count("core.rel_carried", float64(ur.RelCarried))
		l.count("core.rel_dropped", float64(ur.RelDropped))
		after := c.ci.persist.Metrics().Store
		if after.SnapshotsWritten > before.SnapshotsWritten {
			// The automatic snapshot ran inside this update request.
			l.maxOf("store.snapshot_stall_max_ms", out.updateMS)
		} else if after.WALBytes > before.WALBytes {
			l.sample("store.wal_bytes_per_update", float64(after.WALBytes-before.WALBytes))
		}
	}
	return out, nil
}

// phase runs script rounds [from, from+n).
func (c *churn) phase(from, n int, traced bool) (rounds []churnRound, wall time.Duration, truncated bool, err error) {
	deadline := c.cfg.deadline()
	start := time.Now()
	for r := from; r < from+n; r++ {
		if time.Now().After(deadline) {
			truncated = true
			break
		}
		out, err := c.round(r, traced)
		if err != nil {
			return rounds, 0, false, err
		}
		rounds = append(rounds, out)
	}
	return rounds, time.Since(start), truncated, nil
}

// runServeChurn is the writes-beside-reads workload: one scripted
// client alternates an 8-edge update with one pass over the query pool,
// against a persistent engine with WAL fsync per batch.
func runServeChurn(cfg config, res *result, chk *checker, tr *tracer, layers *layerSet) error {
	replica, err := paperInputs(min(gateScale, cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	replica.addChurnScript(cfg.seed, 4)
	if err := gateAgainstReference(replica, []core.Strategy{core.RTCSharing}, 4); err != nil {
		return err
	}

	// Script round 0 is the warm-up unit; rounds 1.. are measured.
	rounds := cfg.work.rounds
	// Set-up: graph, store open (cold boot: initial snapshot), server
	// boot, then the warm-up round through HTTP.
	ci, setupS, setupTimes, err := medianSetup(cfg, func() (churnInstance, error) {
		in, err := paperInputs(cfg.scale, cfg.seed)
		if err != nil {
			return churnInstance{}, err
		}
		in.addChurnScript(cfg.seed, rounds+1)
		dir, err := os.MkdirTemp(cfg.outDir, "churn-store-")
		if err != nil {
			return churnInstance{}, err
		}
		t0 := time.Now()
		d, err := store.OpenDir(dir)
		if err != nil {
			os.RemoveAll(dir)
			return churnInstance{}, err
		}
		persist, _, err := store.Open(d, in.graph, core.Options{}, store.Options{SnapshotEvery: snapshotEvery})
		if err != nil {
			d.Close()
			os.RemoveAll(dir)
			return churnInstance{}, err
		}
		ci := churnInstance{in: in, dir: dir, persist: persist, openNS: time.Since(t0)}
		ci.s = serve(persist.Engine, server.Options{Persist: persist})
		cl := newClient(ci.s.ts.URL)
		defer cl.close()
		if _, err := cl.post("/update", updateBody(in.rounds[0])); err != nil {
			ci.teardown()
			return churnInstance{}, fmt.Errorf("warm-up update: %w", err)
		}
		for _, q := range in.pool {
			if _, err := cl.post("/query", cl.queryBody(q.String(), pageLimit, 0)); err != nil {
				ci.teardown()
				return churnInstance{}, fmt.Errorf("warm-up query %s: %w", q, err)
			}
		}
		return ci, nil
	}, churnInstance.teardown)
	if err != nil {
		return err
	}
	defer os.RemoveAll(ci.dir)
	stopped := false
	defer func() {
		if !stopped {
			ci.stop()
		}
	}()
	in := ci.in
	res.FixedWork = map[string]int{"clients": 1, "rounds": rounds, "updates_per_round": updatesPerRound, "queries_per_round": len(in.pool), "snapshot_every": snapshotEvery}

	orc, err := newOracle(in.graph, in.pool)
	if err != nil {
		return err
	}
	if _, err := orc.engine.ApplyUpdates(in.rounds[0]); err != nil {
		return err
	}
	c := &churn{cfg: cfg, ci: ci, orc: orc, cl: newClient(ci.s.ts.URL), chk: chk, tr: tr, layers: layers}

	var measured []churnRound
	var wall time.Duration
	var truncated bool
	if cfg.trace {
		half := cfg.work.halved().rounds
		var untraced time.Duration
		if _, untraced, _, err = c.phase(1, half, false); err == nil {
			measured, wall, truncated, err = c.phase(1+half, half, true)
		}
		if err == nil {
			layers.set("bench.trace_overhead_share", wall.Seconds()/untraced.Seconds()-1)
		}
	} else {
		measured, wall, truncated, err = c.phase(1, rounds, false)
	}
	c.cl.close()
	if err == nil && len(measured) == 0 {
		err = errTruncated
	}
	if err != nil {
		return err
	}
	res.WallS, res.Truncated = wall.Seconds(), truncated
	checkCrossEpoch(ci.persist.Engine, chk)

	if cfg.trace {
		engineCounters(ci.persist.Engine, layers)
		layers.set("store.open_cold_ns", ns(ci.openNS))
		t0 := time.Now()
		info, err := ci.persist.Snapshot()
		if err != nil {
			return fmt.Errorf("explicit snapshot: %w", err)
		}
		layers.set("store.snapshot_ns", ns(time.Since(t0)))
		layers.set("store.snapshot_bytes", float64(info.Bytes))
		layers.set("store.bytes_per_edge", float64(info.Bytes)/float64(max(ci.persist.Graph().NumEdges(), 1)))
		if err := replayLayers(in, []core.Strategy{core.RTCSharing}, cfg.seed, tr, layers, chk); err != nil {
			return err
		}
	} else {
		var updates, requeries []float64
		for _, r := range measured {
			updates = append(updates, r.updateMS)
			requeries = append(requeries, r.requeryMS...)
		}
		// Update latency is bimodal (insert-only rounds patch closures,
		// rounds with deletes drop them), so the rate is edges over
		// summed update time: a median would flip between the modes.
		edgesPerSecond := func(part []float64) float64 { return float64(len(part)*updatesPerRound) * 1000 / sum(part) }
		c.orc, orc = nil, nil // the oracle's relations must not count as resident
		res.setSetup(setupS, setupTimes)
		res.setLatency(requeries, 95, "requery_ms_p50", "requery_ms_p95")
		res.Metrics["throughput_per_s"] = metricValue{Value: edgesPerSecond(updates), Unit: "1/s", N: len(updates), Parts: perFifth(updates, edgesPerSecond), Alias: "update_edges_per_s"}
		res.Metrics["resident_mb"] = metricValue{Value: residentMB(ci.s, ci.persist), Unit: "MB"}
		res.Detail["update_ms_p50"] = metricValue{Value: median(updates), Unit: "ms", N: len(updates), Parts: perFifth(updates, median)}
		res.Detail["rounds_per_s"] = metricValue{Value: float64(len(measured)) / wall.Seconds(), Unit: "1/s"}
	}

	// Durability check: close everything, reopen the store with no seed
	// graph, and demand the last acknowledged epoch and the same graph.
	wantFP := graphFingerprint(ci.persist.Graph())
	stopped = true
	if err := ci.stop(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	t0 := time.Now()
	d, err := store.OpenDir(ci.dir)
	if err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	reopened, info, err := store.Open(d, nil, core.Options{}, store.Options{SnapshotEvery: snapshotEvery})
	if err != nil {
		d.Close()
		return fmt.Errorf("recovering store: %w", err)
	}
	layers.set("store.recover_ns", ns(time.Since(t0)))
	defer reopened.Close()
	if info.Epoch != c.acked {
		chk.violation(fmt.Errorf("store recovered to epoch %d, last acknowledged update was epoch %d", info.Epoch, c.acked))
	}
	if got := graphFingerprint(reopened.Graph()); got != wantFP {
		chk.violation(fmt.Errorf("store recovered graph fingerprint %x, served graph had %x", got, wantFP))
	}
	return nil
}
