package server

import (
	"encoding/binary"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"rtcshare/internal/pairs"
)

// The append-encoder: every pair-bearing record — a /query page, an
// NDJSON pairs line, an SSE pairs event — is appended into one pooled
// byte buffer by appendPairs, so a delivered pair costs a few fixed-size
// stores, not a [][2]VID copy and a reflective encode. The bytes are
// exactly what encoding/json (HTML escaping off, trailing newline)
// writes for QueryResponse and {"pairs":[][2]VID}; encode_test.go holds
// the two together.

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

const (
	// pairBlock is how many pairs appendPairElems writes per reservation
	// of slack, so the reservation stays a few KiB however long the page.
	pairBlock = 256
	// maxPairBytes is the longest element with its trailing comma:
	// `[-2147483648,-2147483648],`.
	maxPairBytes = 26
	// storeSlack covers the fixed-size stores, which may write up to 16
	// bytes past the element's last byte.
	storeSlack = 16
)

// digits4 holds every v < 10⁴ as four zero-padded ASCII digits packed
// little-endian, so one 4-byte store writes them in order.
var digits4 = func() (t [10000]uint32) {
	for v := range t {
		t[v] = uint32('0'+v/1000) | uint32('0'+v/100%10)<<8 | uint32('0'+v/10%10)<<16 | uint32('0'+v%10)<<24
	}
	return t
}()

// appendPairElems appends the comma-separated elements of appendPairs.
// A page is in (src, dst) order, so "[src," is rendered once per source
// run into a fixed array and copied per pair with one 16-byte store;
// destination digits come four at a time from digits4. Both write into
// slack reserved once per block, and every element ends in a comma that
// the next overwrites, the last one dropped. A negative VID, which no
// graph has, falls back to strconv, so the bytes are encoding/json's for
// every int32.
func appendPairElems(dst []byte, page []pairs.Pair) []byte {
	if len(page) == 0 {
		return dst
	}
	var pre [16]byte
	preLen, last := 0, ^page[0].Src // not the first source
	for len(page) > 0 {
		block := page[:min(len(page), pairBlock)]
		page = page[len(block):]
		dst = slices.Grow(dst, len(block)*maxPairBytes+storeSlack)
		b, n := dst[:cap(dst)], len(dst)
		for _, p := range block {
			if p.Src != last {
				last = p.Src
				preLen = len(append(strconv.AppendInt(append(pre[:0], '['), int64(p.Src), 10), ','))
			}
			*(*[16]byte)(b[n:]) = pre
			n += preLen
			if d := uint32(p.Dst); d < 1e4 {
				n = putLead(b, n, d)
			} else if p.Dst > 0 {
				n = putDigits(b, n, d)
			} else {
				n = len(strconv.AppendInt(b[:n], int64(p.Dst), 10))
			}
			binary.LittleEndian.PutUint16(b[n:], ']'|','<<8)
			n += 2
		}
		dst = b[:n]
	}
	return dst[:len(dst)-1]
}

// putDigits writes v ≥ 10⁴ at b[n:] as a leading group and groups of
// four, and returns the position after them.
func putDigits(b []byte, n int, v uint32) int {
	hi, lo := v/1e4, v%1e4
	if hi < 1e4 {
		n = putLead(b, n, hi)
	} else {
		n = putLead(b, n, hi/1e4)
		binary.LittleEndian.PutUint32(b[n:], digits4[hi%1e4])
		n += 4
	}
	binary.LittleEndian.PutUint32(b[n:], digits4[lo])
	return n + 4
}

// putLead writes v < 10⁴ at b[n:], which has slack for a 4-byte store,
// without leading zeros, and returns the position after it. The zero
// bytes of digits4[v]-"0000" below its last digit count the zeros.
func putLead(b []byte, n int, v uint32) int {
	w := digits4[v]
	zeros := bits.TrailingZeros32((w-0x30303030)|1<<24) / 8
	binary.LittleEndian.PutUint32(b[n:], w>>(8*zeros))
	return n + 4 - zeros
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

// pager is what a /query page is read from: a sealed result
// (*pairs.Relation), paged piece by piece.
type pager interface {
	PageInto(offset int, buf []pairs.Pair) int
}

// pieceBuf holds one piece of a page. The handler pages the first piece
// into it before the envelope is encoded, so the page stage is measured;
// writePage pages the rest into it as it goes.
type pieceBuf [pagePiece]pairs.Pair

var pieceBufs = sync.Pool{New: func() any { return new(pieceBuf) }}

// firstPiece pages the first piece of the count pairs at offset of src
// into a pooled buffer, which writePage reuses and hands back.
func firstPiece(src pager, offset, count int) []pairs.Pair {
	pb := pieceBufs.Get().(*pieceBuf)
	return pb[:src.PageInto(offset, pb[:min(count, pagePiece)])]
}

// writePage sends the 200 response r whose pairs are the r.Count pairs
// of src from position r.Offset (r.Pairs is ignored); first is that
// page's first piece as firstPiece returned it. A page of at most
// pagePiece pairs is one write with Content-Length; a larger one streams
// piece by piece through the same buffers, chunked by net/http.
func writePage(w http.ResponseWriter, r *QueryResponse, src pager, first []pairs.Pair) {
	pb := (*pieceBuf)(first[:pagePiece])
	defer pieceBufs.Put(pb)
	wb := getWireBuf()
	defer wb.release()
	w.Header().Set("Content-Type", "application/json")
	wb.b = append(appendQueryHead(wb.b[:0], r), '[')
	piece, pos, end := first, r.Offset+len(first), r.Offset+r.Count
	for pos < end && len(piece) > 0 {
		wb.b = append(appendPairElems(wb.b, piece), ',')
		if _, err := w.Write(wb.b); err != nil {
			return // client went away
		}
		piece = pb[:src.PageInto(pos, pb[:min(end-pos, pagePiece)])]
		wb.b, pos = wb.b[:0], pos+len(piece)
	}
	wb.b = appendQueryTail(append(appendPairElems(wb.b, piece), ']'), r)
	if r.Count <= pagePiece {
		w.Header().Set("Content-Length", strconv.Itoa(len(wb.b)))
	}
	_, _ = w.Write(wb.b)
}
