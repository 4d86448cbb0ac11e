package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Streaming delivery: GET/POST /query/stream sends the result as
// newline-delimited JSON chunks, GET /query/sse as Server-Sent Events.
// Both open one epoch-pinned pull stream (Engine.OpenStream) and drain
// it chunk by chunk, so the response starts after the shared inputs
// resolve — before the first pair /query would have to seal a full
// relation for — and the server's peak memory per stream is one
// chunk, not one result.
//
// Epoch semantics: the stream answers entirely at the graph epoch
// current when it opened (the pinned engine version is immutable), so a
// client always reads one consistent result no matter how many updates
// land mid-stream. Options.StreamMaxLag bounds how stale that is allowed
// to get: when the engine's epoch advances more than the lag past the
// pinned one, the server aborts with a structured error record carrying
// both epochs, and the client restarts on the current graph.

// streamMeta is the first NDJSON record / the "meta" SSE event.
type streamMeta struct {
	Query string `json:"query"`
	Epoch uint64 `json:"epoch"`
}

// A pairs record / "pairs" SSE event is {"pairs":[[src,dst],...]},
// written by streamSink.pairs.

// streamDone is the final NDJSON record / the "done" SSE event.
type streamDone struct {
	Done      bool   `json:"done"`
	PairsSent int64  `json:"pairs_sent"`
	Epoch     uint64 `json:"epoch"`
	WallNS    int64  `json:"wall_ns"`
}

// streamError is a mid-stream NDJSON error record / an "error" SSE
// event. Code "epoch_lag" marks the StreamMaxLag abort; "evaluation"
// everything else.
type streamError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// PinnedEpoch and CurrentEpoch are set on epoch_lag aborts.
	PinnedEpoch  uint64 `json:"pinned_epoch,omitempty"`
	CurrentEpoch uint64 `json:"current_epoch,omitempty"`
}

// decodeStreamRequest parses q/limit from GET parameters or the
// QueryRequest JSON body, writing the 400 itself on failure.
func (s *Server) decodeStreamRequest(w http.ResponseWriter, r *http.Request) (string, rpq.Expr, int, bool) {
	var query string
	var limit int
	if r.Method == http.MethodGet {
		p := r.URL.Query()
		query = p.Get("q")
		if v := p.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit: %w", err))
				return "", nil, 0, false
			}
			limit = n
		}
	} else {
		var req QueryRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return "", nil, 0, false
		}
		query, limit = req.Query, req.Limit
	}
	if query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return "", nil, 0, false
	}
	if limit < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("limit must be non-negative"))
		return "", nil, 0, false
	}
	expr, err := rpq.Parse(query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", nil, 0, false
	}
	return query, expr, limit, true
}

// drainToSink runs the drain loop: open-time errors were already
// handled; this delivers chunks until done, limit, epoch-lag abort or a
// stream error. Returns the pairs sent.
func (s *Server) drainToSink(stream *core.ResultStream, query string, sink *streamSink, start time.Time) int64 {
	defer stream.Close()
	defer sink.release()
	if err := sink.record("meta", streamMeta{Query: query, Epoch: stream.Epoch()}); err != nil {
		return 0
	}
	buf := make([]pairs.Pair, s.opts.StreamChunk)
	var sent int64
	var encode time.Duration
	defer func() { s.lat.encode[pathStreamed].observe(encode) }()
	for {
		// The lag guard: a pinned stream is always self-consistent, but
		// past the configured lag the answer is declared too stale to
		// keep delivering.
		if lag := s.opts.StreamMaxLag; lag > 0 {
			if cur := s.engine.Epoch(); cur > stream.Epoch()+lag {
				s.epochAborts.Add(1)
				_ = sink.record("error", streamError{
					Error: fmt.Sprintf("stream pinned to epoch %d fell %d epochs behind (max lag %d): restart on the current graph",
						stream.Epoch(), cur-stream.Epoch(), lag),
					Code:         "epoch_lag",
					PinnedEpoch:  stream.Epoch(),
					CurrentEpoch: cur,
				})
				return sent
			}
		}
		n, done, err := stream.Next(buf)
		if err != nil {
			_ = sink.record("error", streamError{Error: err.Error(), Code: "evaluation"})
			return sent
		}
		if n > 0 {
			t0 := time.Now()
			err := sink.pairs(buf[:n])
			t1 := time.Now()
			encode += t1.Sub(t0)
			if err != nil {
				return sent // client went away
			}
			if sent == 0 {
				s.lat.firstChunk.observe(t1.Sub(start))
			}
			sent += int64(n)
		}
		if done {
			_ = sink.record("done", streamDone{
				Done:      true,
				PairsSent: sent,
				Epoch:     stream.Epoch(),
				WallNS:    time.Since(start).Nanoseconds(),
			})
			return sent
		}
	}
}

// openStream opens the engine stream, mapping open-time failures to the
// usual /query statuses (the stream has not started, so a plain HTTP
// error is still possible).
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, expr rpq.Expr, limit int) (*core.ResultStream, bool) {
	if s.draining.Load() {
		writeQueryError(w, ErrShuttingDown)
		return nil, false
	}
	stream, err := s.engine.OpenStream(r.Context(), expr, core.StreamOptions{Limit: limit})
	if err != nil {
		writeQueryError(w, err)
		return nil, false
	}
	return stream, true
}

// streamSink frames stream records as NDJSON lines or, with sse set, as
// Server-Sent Events (named events with one JSON data line each),
// flushing after every record so chunks reach the client as they are
// produced. Both framings build each record in one pooled buffer: pairs
// records through the append-encoder, the cold records (meta, done,
// error) through encoding/json.
type streamSink struct {
	w   http.ResponseWriter
	f   http.Flusher
	sse bool
	wb  *wireBuf
}

func newStreamSink(w http.ResponseWriter, sse bool) *streamSink {
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	if sse {
		h.Set("Content-Type", "text/event-stream")
		h.Set("Connection", "keep-alive")
	}
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return &streamSink{w: w, f: f, sse: sse, wb: getWireBuf()}
}

func (k *streamSink) release() { k.wb.release() }

// begin starts a record in the sink's buffer.
func (k *streamSink) begin(event string) []byte {
	if !k.sse {
		return k.wb.b[:0]
	}
	return append(append(append(k.wb.b[:0], "event: "...), event...), "\ndata: "...)
}

// end sends the record b, whose JSON already ends in a newline.
func (k *streamSink) end(b []byte) error {
	if k.sse {
		b = append(b, '\n')
	}
	k.wb.b = b
	if _, err := k.w.Write(b); err != nil {
		return err
	}
	if k.f != nil {
		k.f.Flush()
	}
	return nil
}

// pairs sends one pairs record.
func (k *streamSink) pairs(page []pairs.Pair) error {
	b := appendPairs(append(k.begin("pairs"), `{"pairs":`...), page)
	return k.end(append(b, '}', '\n'))
}

// record sends one cold record. HTML escaping follows the framing: SSE
// data has always been json.Marshal's bytes, NDJSON lines an Encoder's
// with escaping off.
func (k *streamSink) record(event string, v any) error {
	buf := bytes.NewBuffer(k.begin(event))
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(k.sse)
	if err := enc.Encode(v); err != nil {
		return err
	}
	return k.end(buf.Bytes())
}

// streamHandler serves GET/POST /query/stream — the result as NDJSON: a
// meta record, pairs records, then a done or error record — and, with
// sse, GET /query/sse: the same drain framed as Server-Sent Events.
func (s *Server) streamHandler(sse bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		query, expr, limit, ok := s.decodeStreamRequest(w, r)
		if !ok {
			return
		}
		stream, ok := s.openStream(w, r, expr, limit)
		if !ok {
			return
		}
		s.streams.Add(1)
		sent := s.drainToSink(stream, query, newStreamSink(w, sse), start)
		s.streamedPairs.Add(sent)
		s.lat.observe(pathStreamed, time.Since(start), &core.StageTimer{})
	}
}
