package main

import "math"

// Inputs are generated here, from the workload seed alone; the library
// under test only ever sees the generated keys, values and op choices.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform draw from [0, n).
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

const mask62 = 1<<62 - 1

// keyspace maps item indices to store keys through a seeded bijection
// of [0, 2^62), so distinct indices give distinct keys, every key lies
// in [1, 2^62] (inside every structure's usable key range), and key
// order is unrelated to index order.
type keyspace struct{ salt uint64 }

func newKeyspace(seed uint64) keyspace {
	return keyspace{salt: newRNG(seed, 0x6b6579).next() & mask62}
}

func (ks keyspace) key(i uint64) uint64 {
	x := (i ^ ks.salt) & mask62
	x = (x * 0x9e3779b97f4a7c15) & mask62
	x ^= x >> 29
	x = (x * 0xbf58476d1ce4e5b9) & mask62
	x ^= x >> 32
	return x + 1
}

// zipf draws ranks in [0, n) with YCSB's Zipfian generator (Gray et
// al.), rank 0 the most popular. Build one per item count with
// newZipf; draws need a caller-supplied rng, so one zipf serves every
// client.
type zipf struct {
	n                          uint64
	alpha, eta, zetan, halfPow float64 // halfPow is 1 + 0.5^theta
}

func newZipf(n uint64, theta float64) *zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipf{
		n: n, alpha: 1 / (1 - theta), zetan: zetan,
		eta:     (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPow: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPow {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// scatter maps a rank to an item index with a hash, as YCSB's
// scrambled Zipfian does, so the popular items are spread over the key
// space (and therefore over the shards) instead of clustering.
func (z *zipf) scatter(rank uint64) uint64 { return mix64(rank) % z.n }

// item draws a scattered Zipfian item index.
func (z *zipf) item(r *rng) uint64 { return z.scatter(z.rank(r)) }

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Values carry a checksum of the key they were written under: the
// high 32 bits are a version (0 for prefill values, nonzero for values
// a client wrote), the low 32 bits a hash of key and version. A value
// read back under another key, or torn, fails checksumOK.
func makeValue(key uint64, version uint32) uint64 {
	return uint64(version)<<32 | uint64(uint32(mix64(key^uint64(version)<<40)))
}

func checksumOK(key, val uint64) bool {
	return makeValue(key, uint32(val>>32)) == val
}

// clientVersion numbers client c's j-th write (j from 0) among nc
// clients: distinct across clients and writes, never 0.
func clientVersion(c, nc int, j uint64) uint32 {
	return uint32(j*uint64(nc) + uint64(c) + 1)
}
