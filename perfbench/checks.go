package main

import (
	"fmt"
	"sort"

	"flock/internal/structures/set"
)

// The correctness checks. Each is computed from the benchmark's own
// record of what it generated and what the library reported, never
// from a stored copy of earlier output, and each returns nil or an
// error naming the violation.

// checkRead checks a lookup of a key that must be present: it is found
// and its value carries the key's checksum.
func checkRead(key, val uint64, found bool) error {
	if !found {
		return fmt.Errorf("key %#x: missing", key)
	}
	if !checksumOK(key, val) {
		return fmt.Errorf("key %#x: value %#x fails its checksum", key, val)
	}
	return nil
}

// checkFinal checks a quiesced key against the writes made to it: it
// holds its prefill value (version 0) if no client wrote it, and
// otherwise the last value one of the clients wrote. last[c] is the
// version of client c's last write to the key, 0 for none.
func checkFinal(key, val uint64, found bool, last []uint32) error {
	if err := checkRead(key, val, found); err != nil {
		return err
	}
	got := uint32(val >> 32)
	written := false
	for _, v := range last {
		if v != 0 {
			written = true
			if got == v {
				return nil
			}
		}
	}
	if !written && got == 0 {
		return nil
	}
	return fmt.Errorf("key %#x: holds version %d, not the prefill or any client's last write %v", key, got, last)
}

// checkScan checks one Scan(lo, hi, limit) result against the sorted
// prefilled keys, none of which is ever deleted: the result is strictly
// ascending, inside [lo, hi], at most limit long, every value carries
// its key's checksum, no prefilled key between lo and the last
// returned key is missing, and a result shorter than limit missed no
// prefilled key up to hi.
func checkScan(prefilled []uint64, lo, hi uint64, limit int, res []set.KV) error {
	if len(res) > limit {
		return fmt.Errorf("scan [%#x,%#x] limit %d: %d results", lo, hi, limit, len(res))
	}
	for i, kv := range res {
		if kv.Key < lo || kv.Key > hi {
			return fmt.Errorf("scan [%#x,%#x]: key %#x out of bounds", lo, hi, kv.Key)
		}
		if i > 0 && kv.Key <= res[i-1].Key {
			return fmt.Errorf("scan [%#x,%#x]: key %#x after %#x", lo, hi, kv.Key, res[i-1].Key)
		}
		if !checksumOK(kv.Key, kv.Value) {
			return fmt.Errorf("scan [%#x,%#x]: key %#x value %#x fails its checksum", lo, hi, kv.Key, kv.Value)
		}
	}
	upTo := hi
	if len(res) == limit {
		upTo = res[len(res)-1].Key
	}
	j := sort.Search(len(prefilled), func(i int) bool { return prefilled[i] >= lo })
	ri := 0
	for ; j < len(prefilled) && prefilled[j] <= upTo; j++ {
		for ri < len(res) && res[ri].Key < prefilled[j] {
			ri++
		}
		if ri == len(res) || res[ri].Key != prefilled[j] {
			return fmt.Errorf("scan [%#x,%#x] limit %d: skipped prefilled key %#x", lo, hi, limit, prefilled[j])
		}
	}
	return nil
}

// checkCount checks a quiesced key count against the prefill plus the
// successful inserts.
func checkCount(got, prefill, inserted int) error {
	if got != prefill+inserted {
		return fmt.Errorf("store holds %d keys, want %d prefilled + %d inserted", got, prefill, inserted)
	}
	return nil
}

// checkConserved checks a set of account balances read at one instant
// (a snapshot or the quiesced store): exactly wantCount accounts whose
// balances sum to wantSum.
func checkConserved(count int, sum uint64, wantCount int, wantSum uint64) error {
	if count != wantCount || sum != wantSum {
		return fmt.Errorf("%d accounts summing to %d, want %d summing to %d", count, sum, wantCount, wantSum)
	}
	return nil
}

// checkNet checks a quiesced set against the per-key net of successful
// inserts and deletes: key i is present iff initially present plus
// net[i] is 1, and that sum is always 0 or 1.
func checkNet(initial []bool, net []int64, present []bool) error {
	for i := range initial {
		want := net[i]
		if initial[i] {
			want++
		}
		if want != 0 && want != 1 {
			return fmt.Errorf("key %d: net presence %d after successful inserts and deletes", i, want)
		}
		if present[i] != (want == 1) {
			return fmt.Errorf("key %d: present=%v, but inserts and deletes net to %d", i, present[i], want)
		}
	}
	return nil
}
