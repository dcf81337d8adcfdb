package main

import (
	"math/bits"
	"time"
)

// Clock reads are time.Since on a monotonic base: one runtime nanotime
// call, no wall-clock read.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// hist is a log-linear latency histogram in nanoseconds: values below
// 2^subBits land in exact unit buckets, and every power-of-two range
// above is split into 2^subBits linear sub-buckets (under 1% relative
// width). Quantiles interpolate by rank inside the bucket that holds
// them, so they are not rounded to bucket edges.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // shift that leaves subBits+1 bits
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns the half-open value range [lo, hi) of bucket b.
func bucketRange(b int) (lo, hi float64) {
	if b < 1<<subBits {
		return float64(b), float64(b + 1)
	}
	e := b>>subBits - 1
	m := b&(1<<subBits-1) + 1<<subBits
	return float64(uint64(m) << e), float64(uint64(m+1) << e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, or 0 for
// an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketRange(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}
