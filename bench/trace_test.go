package bench

import (
	"testing"
	"time"
)

func TestSelfTimesOnHandMadeTree(t *testing.T) {
	spans := []Span{
		{Req: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children: 10-50 is covered once, not 20+30.
		{Req: 1, Name: "a", Parent: "root", Start: 10, End: 30},
		{Req: 1, Name: "b", Parent: "root", Start: 20, End: 50},
		// A replayed child may outlast its parent; it still counts in full.
		{Req: 1, Name: "c", Parent: "root", Start: 90, End: 120},
		// A grandchild reduces its own parent, not the root.
		{Req: 1, Name: "a1", Parent: "a", Start: 12, End: 20},
		// Another request's spans of the same names stay separate.
		{Req: 2, Name: "root", Start: 1000, End: 1010},
		{Req: 2, Name: "a", Parent: "root", Start: 1000, End: 1004},
	}
	st := SelfTimes(spans)
	for name, want := range map[string]SpanStat{
		"root": {Count: 2, Total: 110, Self: 30 + 6},
		"a":    {Count: 2, Total: 24, Self: 12 + 4},
		"b":    {Count: 1, Total: 30, Self: 30},
		"c":    {Count: 1, Total: 30, Self: 30},
		"a1":   {Count: 1, Total: 8, Self: 8},
	} {
		if st[name] != want {
			t.Errorf("%s: %+v, want %+v", name, st[name], want)
		}
	}
}

func TestReplayLaysChildrenEndToEnd(t *testing.T) {
	tr := NewTrace()
	start := time.Now()
	tr.Real(0, "root", start, start.Add(100*time.Nanosecond))
	tr.Replay(0, "x", "root", 30)
	tr.Replay(0, "y", "root", 50)
	tr.Replay(0, "y1", "y", 10)
	tr.Replay(0, "alone", "", 7)
	root, x, y, y1 := tr.Spans[0], tr.Spans[1], tr.Spans[2], tr.Spans[3]
	if x.Start != root.Start || y.Start != x.End || y.End != root.Start+80 || y1.Start != y.Start {
		t.Fatalf("children not end to end from the parent's start: %+v", tr.Spans)
	}
	st := SelfTimes(tr.Spans)
	if st["root"].Self != 20 || st["y"].Self != 40 || st["alone"].Self != 7 {
		t.Errorf("self times %+v", st)
	}
}
