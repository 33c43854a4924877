package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third sticks out
		// of the parent and only [90, 100) counts.
		{ID: 2, Parent: 1, Name: "submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "events", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "get", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "run", Start: 35, End: 45},
		{ID: 6, Name: "job", Start: 200, End: 210},
	}
	st := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"job":    100 - 50 + 10,
		"submit": 30,
		"events": 20 - 10,
		"get":    30,
		"run":    10,
	} {
		if st[name] != want {
			t.Errorf("self(%s) = %d, want %d", name, st[name], want)
		}
	}
}

func TestTracerRecordsParentsAndTraces(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", open{})
	child := tr.begin("serve.submit", root)
	tr.end(child)
	now := time.Now()
	tr.add("serve.run", root, now, now.Add(time.Millisecond))
	tr.end(root)
	tr.count("lines", 3)
	tr.count("lines", 2)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
		if s.Trace != root.id {
			t.Errorf("%s: trace %d, want %d", s.Name, s.Trace, root.id)
		}
	}
	if byName["job"].Parent != 0 || byName["serve.submit"].Parent != root.id || byName["serve.run"].Parent != root.id {
		t.Errorf("wrong parents: %+v", tr.spans)
	}
	if d := byName["serve.run"].dur(); d != time.Millisecond {
		t.Errorf("added span lasts %v", d)
	}
	if tr.counts["lines"] != 5 {
		t.Errorf("counter = %d", tr.counts["lines"])
	}

	var off *tracer // tracing off records nothing and must not panic
	off.end(off.begin("x", open{}))
	off.add("y", open{}, now, now)
	off.count("z", 1)
}
