package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcshare/internal/cli"
)

// syncBuffer is an io.Writer safe to read while run() writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                  // no graph
		{"-graph", "/does/not/exist"},       // unreadable graph
		{"-demo", "-strategy", "bogus"},     // bad strategy
		{"-demo", "-addr", "not-an-addr:x"}, // unbindable address
		{"-demo", "-addr", "127.0.0.1:0", "-pprof", "not-an-addr:x"}, // unbindable pprof address
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// A stale command line — the sharded cluster's, the coalescing window's,
// or the cost-based planner's — must fail loudly, with or without the
// dash: the flags no longer exist, and a dashless typo is not silently
// dropped.
func TestRunRejectsStrayAndRemovedArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-demo", "shards=4"}, `unexpected argument "shards=4"`},
		{[]string{"-demo", "-shards", "4"}, "flag provided but not defined: -shards"},
		{[]string{"-demo", "-window", "2ms"}, "flag provided but not defined: -window"},
		{[]string{"-demo", "-no-coalesce"}, "flag provided but not defined: -no-coalesce"},
		{[]string{"-demo", "-planner", "cost"}, "flag provided but not defined: -planner"},
	} {
		err := run(context.Background(), tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// A daemon that cannot bind must not have initialised its store: the
// listeners are bound before -data is opened, so a busy port leaves a
// fresh directory empty (and no WAL handle behind).
func TestRunBusyPortLeavesDataDirEmpty(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, extra := range [][]string{
		{"-addr", busy.Addr().String()},
		{"-addr", "127.0.0.1:0", "-pprof", busy.Addr().String()},
	} {
		data := t.TempDir()
		args := append([]string{"-demo", "-data", data}, extra...)
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Fatalf("run(%v): expected a bind error", args)
		}
		entries, err := os.ReadDir(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("run(%v) failed to bind but left %d entries in -data", args, len(entries))
		}
	}
}

// TestRunServesAndShutsDown boots rpqd on an ephemeral port against a
// real graph file, queries it over HTTP, then cancels the context and
// expects a clean exit.
func TestRunServesAndShutsDown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	graphText := "%vertices 4\n0 a 1\n1 a 2\n2 a 0\n2 b 3\n"
	if err := os.WriteFile(path, []byte(graphText), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-graph", path, "-addr", "127.0.0.1:0"}, out)
	}()

	// Wait for the listen line and extract the bound address.
	addrRe := regexp.MustCompile(`serving on http://([^ ]+) `)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("rpqd exited early: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("rpqd never reported its address: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query":"a+.b"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Total int        `json:"total"`
		Pairs [][2]int32 `json:"pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// a+.b from the 3-cycle: every cycle vertex reaches 3.
	if resp.StatusCode != http.StatusOK || qr.Total != 3 {
		t.Fatalf("query: status %d, total %d (want 3): %+v", resp.StatusCode, qr.Total, qr)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("rpqd did not shut down")
	}
}

func TestRunDemoGraph(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-demo", "-addr", "127.0.0.1:0"}, out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "serving on") {
		select {
		case err := <-done:
			t.Fatalf("rpqd exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("demo server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "|V|=10") {
		t.Fatalf("demo graph is not Fig. 1: %q", out.String())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRunPprof: -pprof serves the profile index on its own loopback
// listener, and a bare ":port" never binds beyond 127.0.0.1.
func TestRunPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-demo", "-addr", "127.0.0.1:0", "-pprof", ":0"}, out)
	}()
	pprofRe := regexp.MustCompile(`pprof on http://([^/]+)/`)
	var pprofBase string
	deadline := time.Now().Add(10 * time.Second)
	for pprofBase == "" || !strings.Contains(out.String(), "serving on") {
		if m := pprofRe.FindStringSubmatch(out.String()); m != nil && strings.Contains(out.String(), "serving on") {
			pprofBase = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("rpqd exited early: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof listener never reported: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(pprofBase, "127.0.0.1") {
		t.Fatalf("bare :port bound %q, want loopback", pprofBase)
	}
	resp, err := http.Get(pprofBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, string(body)[:min(len(body), 200)])
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestHelpExitsZero(t *testing.T) {
	err := run(context.Background(), []string{"-h"}, io.Discard)
	if cli.ExitCode(err) != 0 {
		t.Fatalf("-h must map to exit 0, got err %v", err)
	}
	err = run(context.Background(), []string{"-no-such-flag"}, io.Discard)
	if cli.ExitCode(err) != 1 {
		t.Fatalf("bad flag must map to exit 1, got err %v", err)
	}
}

// startRPQD boots run() on an ephemeral port and returns the base URL,
// the exit channel and a cancel that triggers graceful shutdown.
func startRPQD(t *testing.T, args ...string) (string, chan error, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()
	addrRe := regexp.MustCompile(`serving on http://([^ ]+) `)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], done, cancel
		}
		select {
		case err := <-done:
			t.Fatalf("rpqd exited early: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("rpqd never reported its address: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func shutdownRPQD(t *testing.T, done chan error, cancel context.CancelFunc) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("rpqd did not shut down")
	}
}

// TestRunMethodNotAllowed pins the front-door contract: a wrong method
// on a real endpoint is 405 with an Allow header — GET /update must
// never read as a mutation or a missing route.
func TestRunMethodNotAllowed(t *testing.T) {
	base, done, cancel := startRPQD(t, "-demo")
	defer shutdownRPQD(t, done, cancel)

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/update", "POST"},
		{http.MethodDelete, "/query", "GET, POST"},
		{http.MethodPost, "/explain", "GET"},
		{http.MethodGet, "/admin/snapshot", "POST"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, base+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}

	// Without -data, the snapshot endpoint exists but refuses.
	resp, err := http.Post(base+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST /admin/snapshot without -data: status %d, want 409", resp.StatusCode)
	}
}

// TestRunPersistenceLifecycle drives the full durability story over
// HTTP: boot with -data, mutate, snapshot via the admin endpoint,
// crashless restart, and verify the second boot restores the mutated
// state (answer included) instead of the seed.
func TestRunPersistenceLifecycle(t *testing.T) {
	data := filepath.Join(t.TempDir(), "store")

	base, done, cancel := startRPQD(t, "-demo", "-data", data)
	// Figure 1 has no edge 0-b->2; insert it and the b.c result grows.
	resp, err := http.Post(base+"/update", "application/json",
		strings.NewReader(`{"updates":[{"op":"insert","src":0,"label":"b","dst":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ur struct {
		Epoch    uint64 `json:"epoch"`
		Inserted int    `json:"inserted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.Inserted != 1 || ur.Epoch != 1 {
		t.Fatalf("update response: %+v", ur)
	}

	query := func(base string) int {
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(`{"query":"b.c"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr struct {
			Total int    `json:"total"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if qr.Epoch != 1 {
			t.Fatalf("query ran at epoch %d, want 1", qr.Epoch)
		}
		return qr.Total
	}
	want := query(base)

	// Admin snapshot captures the warmed, updated state.
	resp, err = http.Post(base+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var si struct {
		Epoch uint64 `json:"epoch"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&si); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || si.Epoch != 1 || si.Bytes == 0 {
		t.Fatalf("admin snapshot: status %d, %+v", resp.StatusCode, si)
	}

	// Metrics carry the persistence section when -data is set.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Persistence *struct {
			Store struct {
				SnapshotEpoch uint64 `json:"snapshot_epoch"`
			} `json:"store"`
		} `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Persistence == nil || m.Persistence.Store.SnapshotEpoch != 1 {
		t.Fatalf("metrics persistence section: %+v", m.Persistence)
	}
	shutdownRPQD(t, done, cancel)

	// Second boot: -data alone, no -demo/-graph. The restore line must
	// appear and the updated answer must survive.
	ctx, cancel2 := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done2 := make(chan error, 1)
	go func() { done2 <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data", data}, out) }()
	addrRe := regexp.MustCompile(`serving on http://([^ ]+) `)
	deadline := time.Now().Add(10 * time.Second)
	var base2 string
	for base2 == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base2 = "http://" + m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart never came up: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "restored "+data) {
		t.Fatalf("restart did not report a restore: %q", out.String())
	}
	if got := query(base2); got != want {
		t.Fatalf("restored answer: %d pairs, want %d", got, want)
	}
	shutdownRPQD(t, done2, cancel2)
}
