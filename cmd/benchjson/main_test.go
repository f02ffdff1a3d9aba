package main

import "testing"

func TestSplitProcs(t *testing.T) {
	for _, c := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkAblationQueueVsChannel/hyperqueue-2", "BenchmarkAblationQueueVsChannel/hyperqueue", 2},
		{"BenchmarkBoundedVsUnbounded/mode=tight-16", "BenchmarkBoundedVsUnbounded/mode=tight", 16},
		{"BenchmarkSharded/shards=4", "BenchmarkSharded/shards=4", 1},
		{"BenchmarkReducer", "BenchmarkReducer", 1},
		{"BenchmarkX/a-b", "BenchmarkX/a-b", 1},
	} {
		name, procs := splitProcs(c.in)
		if name != c.name || procs != c.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", c.in, name, procs, c.name, c.procs)
		}
	}
}
