package main

import (
	"bytes"
	"testing"
)

func flatten(reqs []serveRequest) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestEpochRequestsDeterministic(t *testing.T) {
	sz := fullSizes()
	for epoch := range 3 {
		a, b := flatten(epochRequests(sz, 7, epoch)), flatten(epochRequests(sz, 7, epoch))
		if !bytes.Equal(a, b) {
			t.Fatalf("epoch %d: same seed gave different sequences", epoch)
		}
		if bytes.Equal(a, flatten(epochRequests(sz, 8, epoch))) {
			t.Fatalf("epoch %d: seeds 7 and 8 gave the same sequence", epoch)
		}
	}
	if bytes.Equal(flatten(epochRequests(sz, 7, 0)), flatten(epochRequests(sz, 7, 1))) {
		t.Fatal("epochs 0 and 1 gave the same sequence")
	}
}

// Every epoch of every seed must carry the same work: the same number
// of requests and distinct keys of each network and mode.
func TestEpochRequestsSameShape(t *testing.T) {
	sz := fullSizes()
	shape := func(reqs []serveRequest) map[string][2]int {
		out := map[string][2]int{}
		for _, r := range distinct(reqs) {
			s := out[r.family()]
			s[1]++
			out[r.family()] = s
		}
		for _, r := range reqs {
			s := out[r.family()]
			s[0]++
			out[r.family()] = s
		}
		return out
	}
	want := shape(epochRequests(sz, 1, 0))
	if len(want) != len(sz.serveNets)*len(serveModes) {
		t.Fatalf("%d families, want %d", len(want), len(sz.serveNets)*len(serveModes))
	}
	for fam, s := range want {
		if s[1] != sz.serveRanks {
			t.Errorf("%s: %d distinct keys, want %d", fam, s[1], sz.serveRanks)
		}
	}
	for _, seed := range []int64{2, 99} {
		for epoch := range 3 {
			got := shape(epochRequests(sz, seed, epoch))
			for fam, s := range want {
				if got[fam] != s {
					t.Errorf("seed %d epoch %d %s: (requests, keys) %v, want %v", seed, epoch, fam, got[fam], s)
				}
			}
		}
	}
}
