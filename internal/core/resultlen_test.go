package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// TestSealRefusesPastMaxInt32 pins the sealed-count bound on a
// row-shared result: a.b+.c over fixtures.RingFans(0) holds exactly
// math.MaxInt32 pairs and seals, with every count and position right;
// one more c-edge makes it 2^31, which EvaluateRel and ExplainAnalyze
// refuse with ErrResultTooLarge instead of a wrapped count, while a
// stream, which needs no offsets, still delivers it. A union whose
// clauses together pass the bound is refused too.
func TestSealRefusesPastMaxInt32(t *testing.T) {
	q := rpq.MustParse("a.b+.c")
	const sources, lone = 1 << 16, 1 << 16

	e := New(fixtures.RingFans(0), Options{})
	rel, err := e.EvaluateRel(q)
	if err != nil {
		t.Fatalf("2^31-1 pairs: %v", err)
	}
	if rel.Len() != math.MaxInt32 {
		t.Fatalf("Len() = %d, want %d", rel.Len(), math.MaxInt32)
	}
	if got := len(rel.DstsOf(0)); got != sources/2-1 {
		t.Fatalf("run of source 0: %d destinations, want %d", got, sources/2-1)
	}
	if got := rel.ColumnBytes(); got > 4<<20 {
		t.Fatalf("row-shared result holds %d column bytes, want under 4 MiB", got)
	}
	last := rel.Page(math.MaxInt32-1, 10)
	if len(last) != 1 || last[0].Src != lone || last[0].Dst != graph.VID(sources+5+sources-2) {
		t.Fatalf("last page = %v, want the lone source's last pair", last)
	}

	// A union's size is known only once it is drained, so two clauses
	// of 2^31-1 pairs each are refused by their summed pairs before
	// anything is drained, though their union — the same pairs — would
	// fit.
	if _, err := e.EvaluateRel(rpq.MustParse("a.b+.c|a.b.b*.c")); !errors.Is(err, ErrResultTooLarge) {
		t.Fatalf("union of two 2^31-1 pair clauses: err %v, want ErrResultTooLarge", err)
	}

	e = New(fixtures.RingFans(1), Options{})
	if rel, err := e.EvaluateRel(q); !errors.Is(err, ErrResultTooLarge) {
		t.Fatalf("2^31 pairs: rel %v, err %v, want ErrResultTooLarge", rel != nil, err)
	}
	if _, err := e.ExplainAnalyze(q); !errors.Is(err, ErrResultTooLarge) {
		t.Fatalf("ExplainAnalyze over 2^31 pairs: err %v, want ErrResultTooLarge", err)
	}
	s, err := e.OpenStream(context.Background(), q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]pairs.Pair, 1000)
	if n, done, err := s.Next(buf); err != nil || done || n != len(buf) || buf[0] != (pairs.Pair{Src: 0, Dst: sources + 5}) {
		t.Fatalf("stream over 2^31 pairs: n=%d done=%v err=%v first=%v", n, done, err, buf[0])
	}
	// The refusal poisons nothing: a sub-query still answers.
	if rel, err := e.EvaluateRel(rpq.MustParse("a.b+")); err != nil || rel.Len() != 2*sources+2 {
		t.Fatalf("a.b+ after the refusal: %v, %v", rel, err)
	}
}
