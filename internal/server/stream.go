package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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
// relation for — and the server's peak memory per stream is the
// sink's 32 KiB of pending records plus one chunk, not one result.
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

// drainToSink runs the drain loop: open-time errors were already
// handled; this delivers chunks until done, limit, epoch-lag abort or a
// stream error. Returns the pairs sent. The streamed encode histogram
// sums the pairs records and the terminal record, whose write carries
// whatever pairs the sink still holds.
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
	event, last := "done", any(nil)
	for {
		// The lag guard: a pinned stream is always self-consistent, but
		// past the configured lag the answer is declared too stale to
		// keep delivering.
		if lag := s.opts.StreamMaxLag; lag > 0 {
			if cur := s.engine.Epoch(); cur > stream.Epoch()+lag {
				s.epochAborts.Add(1)
				event, last = "error", streamError{
					Error: fmt.Sprintf("stream pinned to epoch %d fell %d epochs behind (max lag %d): restart on the current graph",
						stream.Epoch(), cur-stream.Epoch(), lag),
					Code:         "epoch_lag",
					PinnedEpoch:  stream.Epoch(),
					CurrentEpoch: cur,
				}
				break
			}
		}
		n, done, err := stream.Next(buf)
		if err != nil {
			event, last = "error", streamError{Error: err.Error(), Code: "evaluation"}
			break
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
			last = streamDone{
				Done:      true,
				PairsSent: sent,
				Epoch:     stream.Epoch(),
				WallNS:    time.Since(start).Nanoseconds(),
			}
			break
		}
	}
	t0 := time.Now()
	_ = sink.record(event, last)
	encode += time.Since(t0)
	return sent
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
// Server-Sent Events (named events with one JSON data line each). Records
// are appended to one pooled buffer, pairs records through the
// append-encoder and the cold records (meta, done, error) through
// encoding/json, and the buffer is written and flushed when it holds
// flushBytes, after the first pairs record (so the first pairs reach the
// client at once), and after every cold record (so a done or error
// record is never held back). A drain thus costs a Write and a Flush per
// 32 KiB, not per record.
type streamSink struct {
	w   http.ResponseWriter
	f   http.Flusher
	sse bool
	wb  *wireBuf
	// paired is set once the first pairs record has been flushed.
	paired bool
}

// flushBytes is how much a sink buffers before it writes.
const flushBytes = 32 << 10

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
	wb := getWireBuf()
	wb.b = wb.b[:0] // a pooled buffer keeps its last user's bytes
	return &streamSink{w: w, f: f, sse: sse, wb: wb}
}

func (k *streamSink) release() { k.wb.release() }

// begin starts a record after the pending ones in the sink's buffer.
func (k *streamSink) begin(event string) []byte {
	if !k.sse {
		return k.wb.b
	}
	return append(append(append(k.wb.b, "event: "...), event...), "\ndata: "...)
}

// end queues the record whose JSON ends b (newline included) and, if
// flush is set or flushBytes are pending, sends everything queued.
func (k *streamSink) end(b []byte, flush bool) error {
	if k.sse {
		b = append(b, '\n')
	}
	k.wb.b = b
	if !flush && len(b) < flushBytes {
		return nil
	}
	k.wb.b = b[:0]
	if _, err := k.w.Write(b); err != nil {
		return err
	}
	if k.f != nil {
		k.f.Flush()
	}
	return nil
}

// pairs queues one pairs record; the first one is sent at once.
func (k *streamSink) pairs(page []pairs.Pair) error {
	b := appendPairs(append(k.begin("pairs"), `{"pairs":`...), page)
	first := !k.paired
	k.paired = true
	return k.end(append(b, '}', '\n'), first)
}

// record sends one cold record with everything queued before it. HTML escaping follows the framing: SSE
// data has always been json.Marshal's bytes, NDJSON lines an Encoder's
// with escaping off.
func (k *streamSink) record(event string, v any) error {
	buf := bytes.NewBuffer(k.begin(event))
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(k.sse)
	if err := enc.Encode(v); err != nil {
		return err
	}
	return k.end(buf.Bytes(), true)
}

// streamHandler serves GET/POST /query/stream — the result as NDJSON: a
// meta record, pairs records, then a done or error record — and, with
// sse, GET /query/sse: the same drain framed as Server-Sent Events.
func (s *Server) streamHandler(sse bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// A stream honours only query and limit of the request.
		req, expr, ok := s.decodeQueryRequest(w, r)
		if !ok {
			return
		}
		stream, ok := s.openStream(w, r, expr, req.Limit)
		if !ok {
			return
		}
		s.streams.Add(1)
		sent := s.drainToSink(stream, req.Query, newStreamSink(w, sse), start)
		s.streamedPairs.Add(sent)
		s.lat.observe(pathStreamed, time.Since(start), &core.StageTimer{})
	}
}
