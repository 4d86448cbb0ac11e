package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/server"
)

// client is one closed-loop HTTP client: its own transport, so it owns
// exactly one keep-alive connection, and its own buffers, so steady
// state allocates nothing for request or response bodies.
type client struct {
	hc   *http.Client
	base string
	req  []byte
	resp bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   opTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole response into c.resp. The
// returned duration runs from just before the request is written to
// the last byte of the response read: client-side latency.
func (c *client) post(path string, body []byte) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	return d, err
}

// queryBody renders a /query (or /query/stream, with limit 0) request
// into the client's reusable buffer.
func (c *client) queryBody(query string, limit, offset int) []byte {
	b := append(c.req[:0], `{"query":`...)
	b = strconv.AppendQuote(b, query)
	if limit > 0 {
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(limit), 10)
	}
	if offset > 0 {
		b = append(b, `,"offset":`...)
		b = strconv.AppendInt(b, int64(offset), 10)
	}
	c.req = append(b, '}')
	return c.req
}

// page is what the harness checks of a /query response.
type page struct {
	total, count int
	epoch        uint64
	fp           uint64
}

// scanPage extracts total, epoch and the order-sensitive fingerprint of
// the pairs from a QueryResponse body without building the page: the
// check runs on the client's CPU between requests, and a full JSON
// decode of a 1000-pair page costs as much as serving it.
func scanPage(body []byte) (page, error) {
	var p page
	total, ok1 := intField(body, `"total":`)
	epoch, ok2 := intField(body, `"epoch":`)
	at := bytes.Index(body, []byte(`"pairs":`))
	if !ok1 || !ok2 || at < 0 {
		return p, fmt.Errorf("malformed query response: %.80s", body)
	}
	p.total, p.epoch = int(total), uint64(epoch)
	p.fp, p.count = foldPairs(body[at+len(`"pairs":`):], 0)
	return p, nil
}

// intField parses the unsigned integer that follows key in body.
func intField(body []byte, key string) (int64, bool) {
	at := bytes.Index(body, []byte(key))
	if at < 0 {
		return 0, false
	}
	var v int64
	i := at + len(key)
	start := i
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		v = v*10 + int64(body[i]-'0')
	}
	return v, i > start
}

// foldPairs folds the JSON array of [src,dst] arrays at the start of b
// into fp and returns the number of pairs read.
func foldPairs(b []byte, fp uint64) (uint64, int) {
	var (
		cur, first int64
		have       bool
		second     bool
		depth, n   int
	)
	for _, ch := range b {
		switch {
		case ch >= '0' && ch <= '9':
			cur = cur*10 + int64(ch-'0')
			have = true
		case ch == '[':
			depth++
		case ch == ',' || ch == ']':
			if have {
				if second {
					fp = foldPair(fp, graph.VID(first), graph.VID(cur))
					n++
				} else {
					first = cur
				}
				second = !second
				cur, have = 0, false
			}
			if ch == ']' {
				if depth--; depth == 0 {
					return fp, n
				}
			}
		}
	}
	return fp, n
}

// drained is what the harness checks and times of one stream drain.
type drained struct {
	firstPair time.Duration // request sent to first pairs line received
	wall      time.Duration
	pairs     int
	chunks    int
	bytes     int
	fp        uint64
	done      bool
}

// drain POSTs to /query/stream and reads the NDJSON response line by
// line as it arrives.
func (c *client) drain(query string, lines *bufio.Reader) (drained, error) {
	var d drained
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/query/stream", "application/json", bytes.NewReader(c.queryBody(query, 0, 0)))
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	lines.Reset(resp.Body)
	for {
		line, err := lines.ReadSlice('\n')
		d.bytes += len(line)
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte(`{"pairs":`)):
				if d.chunks == 0 {
					d.firstPair = time.Since(t0)
				}
				d.chunks++
				var n int
				d.fp, n = foldPairs(line[len(`{"pairs":`):], d.fp)
				d.pairs += n
			case bytes.HasPrefix(line, []byte(`{"done":true`)):
				d.done = true
			case bytes.HasPrefix(line, []byte(`{"error":`)):
				return d, fmt.Errorf("stream error record: %s", bytes.TrimSpace(line))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return d, err
		}
	}
	d.wall = time.Since(t0)
	if !d.done {
		return d, fmt.Errorf("stream ended without a done record after %d pairs", d.pairs)
	}
	return d, nil
}

// streamLineBuffer holds the longest NDJSON line: 512 pairs of two
// 4-digit-or-so vertex IDs each, with brackets and commas.
const streamLineBuffer = 64 << 10

// served is one booted server over loopback.
type served struct {
	engine *core.Engine
	srv    *server.Server
	ts     *httptest.Server
}

func serve(engine *core.Engine, opts server.Options) *served {
	srv := server.New(engine, opts)
	return &served{engine: engine, srv: srv, ts: httptest.NewServer(srv)}
}

func (s *served) close() {
	s.ts.Close()
	s.srv.Close()
}

// inProcess serves one request through srv.ServeHTTP with no socket in
// between and returns the handler's wall time.
func (s *served) inProcess(path string, body []byte) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	s.srv.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("in-process %s: HTTP %d", path, rec.Code)
	}
	return d, nil
}
