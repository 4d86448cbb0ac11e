package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

// The append-encoder: every pair-bearing record — a /query page, an
// NDJSON pairs line, an SSE pairs event — is appended into one pooled
// byte buffer with strconv, so a delivered pair costs an append, not a
// [][2]VID copy and a reflective encode. The bytes are exactly what
// encoding/json (HTML escaping off, trailing newline) writes for
// QueryResponse and {"pairs":[][2]VID}; encode_test.go holds the two
// together.

const (
	// pagePiece is how many pairs of a page are encoded between writes,
	// so even an unlimited page occupies one piece of buffer (at most 24
	// bytes a pair: under 48 KiB).
	pagePiece = 2048
	// maxPooledBuf is the largest buffer the pool takes back — one piece
	// plus an envelope; a buffer a huge query string grew is dropped.
	maxPooledBuf = 64 << 10
)

// wireBuf is a pooled encode buffer.
type wireBuf struct{ b []byte }

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func (wb *wireBuf) release() {
	if cap(wb.b) <= maxPooledBuf {
		wireBufs.Put(wb)
	}
}

// appendPairs appends page as the JSON array of [src,dst] arrays.
func appendPairs(dst []byte, page []pairs.Pair) []byte {
	return append(appendPairElems(append(dst, '['), page), ']')
}

// appendPairElems appends the comma-separated elements of appendPairs.
// A page is in (src, dst) order, so the source's digits are rendered
// once per run, not once per pair.
func appendPairElems(dst []byte, page []pairs.Pair) []byte {
	var digits [12]byte
	src, last := digits[:0], graph.VID(0)
	for i, p := range page {
		if i > 0 {
			dst = append(dst, ',')
		}
		if p.Src != last || i == 0 {
			src, last = strconv.AppendInt(digits[:0], int64(p.Src), 10), p.Src
		}
		dst = append(append(dst, '['), src...)
		dst = strconv.AppendInt(append(dst, ','), int64(p.Dst), 10)
		dst = append(dst, ']')
	}
	return dst
}

// appendInt appends key (punctuation included) and then v.
func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json writes a string with HTML
// escaping off: quotes, backslashes and control bytes escaped, invalid
// UTF-8 replaced by U+FFFD, U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= ' ' && b != '"' && b != '\\' && b < utf8.RuneSelf {
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		invalid := c == utf8.RuneError && size == 1
		if b >= utf8.RuneSelf && !invalid && c != '\u2028' && c != '\u2029' {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		if k := strings.IndexByte("\"\\\b\f\n\r\t", b); k >= 0 {
			dst = append(dst, '\\', `"\bfnrt`[k])
		} else if b < utf8.RuneSelf {
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		} else if invalid {
			dst = append(dst, `\ufffd`...)
		} else {
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendQueryHead appends r's envelope up to and including `"pairs":`.
func appendQueryHead(dst []byte, r *QueryResponse) []byte {
	dst = appendJSONString(append(dst, `{"query":`...), r.Query)
	dst = strconv.AppendUint(append(dst, `,"epoch":`...), r.Epoch, 10)
	dst = appendInt(dst, `,"total":`, int64(r.Total))
	dst = appendInt(dst, `,"offset":`, int64(r.Offset))
	dst = appendInt(dst, `,"count":`, int64(r.Count))
	dst = appendJSONString(append(dst, `,"path":`...), r.Path)
	st := &r.Stages
	dst = appendInt(dst, `,"stages":{"queue_ns":`, st.QueueNS)
	dst = appendInt(dst, `,"coalesce_wait_ns":`, st.CoalesceWaitNS)
	dst = appendInt(dst, `,"plan_ns":`, st.PlanNS)
	dst = appendInt(dst, `,"closure_build_ns":`, st.ClosureBuildNS)
	dst = appendInt(dst, `,"join_ns":`, st.JoinNS)
	dst = appendInt(dst, `,"seal_ns":`, st.SealNS)
	dst = appendInt(dst, `,"page_ns":`, st.PageNS)
	dst = appendInt(dst, `,"other_ns":`, st.OtherNS)
	dst = appendInt(dst, `},"wall_ns":`, r.WallNS)
	return append(dst, `,"pairs":`...)
}

// appendQueryTail closes the envelope after the pairs array.
func appendQueryTail(dst []byte, r *QueryResponse) []byte {
	if r.NextCursor != "" {
		dst = appendJSONString(append(dst, `,"next_cursor":`...), r.NextCursor)
	}
	return append(dst, '}', '\n')
}

// writePage sends the 200 response r with page as its pairs (r.Pairs is
// ignored). A page of at most pagePiece pairs is one write with
// Content-Length; a larger one streams piece by piece through the same
// buffer, chunked by net/http.
func writePage(w http.ResponseWriter, r *QueryResponse, page []pairs.Pair) {
	wb := getWireBuf()
	defer wb.release()
	w.Header().Set("Content-Type", "application/json")
	wb.b = append(appendQueryHead(wb.b[:0], r), '[')
	rest := page
	for len(rest) > pagePiece {
		wb.b = append(appendPairElems(wb.b, rest[:pagePiece]), ',')
		if _, err := w.Write(wb.b); err != nil {
			return // client went away
		}
		wb.b, rest = wb.b[:0], rest[pagePiece:]
	}
	wb.b = appendQueryTail(append(appendPairElems(wb.b, rest), ']'), r)
	if len(page) <= pagePiece {
		w.Header().Set("Content-Length", strconv.Itoa(len(wb.b)))
	}
	_, _ = w.Write(wb.b)
}
