package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{Start: 10, End: 30}}, 80},
		{"disjoint", []span{{Start: 10, End: 30}, {Start: 50, End: 60}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 70}}, 40},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"unsorted", []span{{Start: 60, End: 80}, {Start: 10, End: 65}}, 30},
		{"clipped", []span{{Start: -50, End: 10}, {Start: 90, End: 150}}, 80},
		{"outside", []span{{Start: 200, End: 300}}, 100},
		{"cover", []span{{Start: 0, End: 100}, {Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestGroupByReq(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 7, Name: spanClient},
		{ID: 2, Parent: 1, Req: 7, Name: spanRouter},
		{ID: 3, Parent: 2, Req: 7, Name: spanForward},
		{ID: 4, Parent: 2, Req: 7, Name: spanForward},
		{ID: 5, Req: 0, Name: spanForward}, // replication traffic
	}
	g := groupByReq(spans)
	if len(g) != 1 || len(g[7].all) != 4 {
		t.Fatalf("groups = %+v", g)
	}
	if n := len(g[7].children[2]); n != 2 {
		t.Fatalf("router children = %d, want 2", n)
	}
	if n := len(g[7].named(spanForward)); n != 2 {
		t.Fatalf("forward spans = %d, want 2", n)
	}
}
