package main

import (
	"slices"
	"testing"

	"flock/internal/structures/set"
)

// Each check is fed a correct result, which it must accept, and
// fabricated wrong ones, each of which it must reject.

func TestCheckReadRejectsBadChecksum(t *testing.T) {
	k := newKeyspace(7).key(3)
	v := makeValue(k, 5)
	if err := checkRead(k, v, true); err != nil {
		t.Fatalf("valid read rejected: %v", err)
	}
	for name, c := range map[string]struct {
		v     uint64
		found bool
	}{
		"flipped checksum bit": {v ^ 1, true},
		"flipped version bit":  {v ^ 1<<40, true},
		"other key's value":    {makeValue(k+1, 5), true},
		"missing key":          {0, false},
	} {
		if checkRead(k, c.v, c.found) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckFinalRejectsStaleValue(t *testing.T) {
	k := uint64(42)
	if err := checkFinal(k, makeValue(k, 0), true, []uint32{0, 0}); err != nil {
		t.Fatalf("unwritten key with its prefill value rejected: %v", err)
	}
	if err := checkFinal(k, makeValue(k, 4), true, []uint32{9, 4}); err != nil {
		t.Fatalf("key with a client's last write rejected: %v", err)
	}
	for name, c := range map[string]struct {
		v    uint64
		last []uint32
	}{
		"prefill value after a write":    {makeValue(k, 0), []uint32{3, 0}},
		"an overwritten earlier write":   {makeValue(k, 1), []uint32{3, 0}},
		"a write no client made":         {makeValue(k, 7), []uint32{0, 0}},
		"last write with a bad checksum": {makeValue(k, 3) ^ 2, []uint32{3, 0}},
	} {
		if checkFinal(k, c.v, true, c.last) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func pairs(keys ...uint64) []set.KV {
	out := make([]set.KV, len(keys))
	for i, k := range keys {
		out[i] = set.KV{Key: k, Value: makeValue(k, 0)}
	}
	return out
}

func TestCheckScanRejectsWrongResults(t *testing.T) {
	prefilled := []uint64{10, 20, 30, 40, 50}
	for name, c := range map[string]struct {
		lo, hi uint64
		limit  int
		res    []set.KV
	}{
		"full prefix":               {20, 100, 3, pairs(20, 30, 40)},
		"with a newly inserted key": {20, 100, 3, pairs(20, 25, 30)},
		"short at the end":          {30, 100, 5, pairs(30, 40, 50)},
		"short at hi":               {10, 35, 5, pairs(10, 20, 30)},
	} {
		if err := checkScan(prefilled, c.lo, c.hi, c.limit, c.res); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	bad := pairs(20, 30, 40)
	bad[1].Value ^= 1
	for name, c := range map[string]struct {
		lo, hi uint64
		limit  int
		res    []set.KV
	}{
		"skips a stable key":          {20, 100, 3, pairs(20, 40, 50)},
		"short result missing keys":   {20, 100, 5, pairs(20, 30)},
		"descending":                  {20, 100, 3, pairs(30, 20, 40)},
		"duplicate key":               {20, 100, 3, pairs(20, 20, 30)},
		"below lo":                    {20, 100, 3, pairs(10, 20, 30)},
		"above hi":                    {20, 35, 3, pairs(20, 30, 40)},
		"over the limit":              {20, 100, 2, pairs(20, 30, 40)},
		"value with a bad checksum":   {20, 100, 3, bad},
		"empty but keys are in range": {20, 100, 3, nil},
	} {
		if checkScan(prefilled, c.lo, c.hi, c.limit, c.res) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCountAndConserved(t *testing.T) {
	if checkCount(105, 100, 5) != nil || checkConserved(3, 3000, 3, 3000) != nil {
		t.Fatal("correct totals rejected")
	}
	if checkCount(104, 100, 5) == nil {
		t.Error("count one short accepted")
	}
	if checkConserved(3, 3001, 3, 3000) == nil {
		t.Error("sum off by one accepted")
	}
	if checkConserved(2, 3000, 3, 3000) == nil {
		t.Error("missing account accepted")
	}
}

func TestCheckNetRejectsDisagreeingSet(t *testing.T) {
	initial := []bool{true, true, false, false}
	net := []int64{0, -1, 1, 0}
	present := []bool{true, false, true, false}
	if err := checkNet(initial, net, present); err != nil {
		t.Fatalf("consistent set rejected: %v", err)
	}
	for i := range present {
		p := slices.Clone(present)
		p[i] = !p[i]
		if checkNet(initial, net, p) == nil {
			t.Errorf("key %d flipped: accepted", i)
		}
	}
	if checkNet(initial, []int64{1, -1, 1, 0}, []bool{true, false, true, false}) == nil {
		t.Error("a second successful insert of a present key accepted")
	}
}

func TestKeyspaceIsInjectiveAndInRange(t *testing.T) {
	ks := newKeyspace(99)
	seen := map[uint64]bool{}
	for i := range uint64(1 << 16) {
		k := ks.key(i)
		if k == 0 || k > 1<<62 {
			t.Fatalf("key %d = %#x out of range", i, k)
		}
		if seen[k] {
			t.Fatalf("key %d = %#x repeats", i, k)
		}
		seen[k] = true
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
}
