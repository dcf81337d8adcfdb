package main

import (
	"math"
	"sort"
	"sync"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/structures/hashtable"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
)

const (
	nClients = 2
	nShards  = 8
)

// workload describes one benchmark workload. Its arms (one per lock
// mode) are built by setup; both arms of a run draw the same inputs.
type workload struct {
	name string
	// procs, when nonzero, is the GOMAXPROCS the workload runs under.
	procs int
	// lfShare is the share of the measured time given to the lock-free
	// arm; the blocking arm gets the rest.
	lfShare float64
	// build prepares the workload's inputs from the seed.
	build func(seed uint64) impl
}

type impl interface {
	// setup builds and prefills one arm's store.
	setup(blocking bool) arm
}

// arm is one lock mode's store with its clients' shared bookkeeping.
type arm interface {
	// clients returns the closed-loop clients. Both arms of a run get
	// identical input streams.
	clients() []client
	// verify checks the quiesced store against the clients' records.
	verify(rec *recorder)
	// layers exposes the arm's layers to the traced ladder.
	layers() *layers
}

var workloads = []*workload{
	{name: "ycsb-a", lfShare: 0.5, build: newYCSBA},
	{name: "scan-read", lfShare: 0.5, build: newScanRead},
	{name: "transfer-snap", lfShare: 0.5, build: newTransferSnap},
	{name: "oversub-help", procs: 1, lfShare: 0.25, build: newOversub},
}

// layers are the handles the traced ladder drives on an arm: the shard
// structures with their runtimes, and whichever of the kv and txn
// stores the arm has. Factories capture the structures kv.New builds,
// in shard order.
type layers struct {
	rts     []*flock.Runtime
	trees   []*leaftree.Tree
	tables  []*hashtable.Table
	shardOf func(k uint64) int
	kv      *kv.Store
	opt     bool // kv was built with OptimisticReads
	txn     *txn.Store
	// keys samples present keys; fresh(i) names keys never inserted.
	keys  []uint64
	fresh func(i uint64) uint64
}

func (l *layers) treeFactory(rt *flock.Runtime, _ uint64) set.Set {
	t := leaftree.New(rt)
	l.rts = append(l.rts, rt)
	l.trees = append(l.trees, t)
	return t
}

func (l *layers) tableFactory(rt *flock.Runtime, perShard uint64) set.Set {
	t := hashtable.New(rt, int(perShard))
	l.rts = append(l.rts, rt)
	l.tables = append(l.tables, t)
	return t
}

func (l *layers) sampleKeys(n uint64, key func(i uint64) uint64, seed uint64) {
	r := newRNG(seed, 0x6c6164)
	l.keys = make([]uint64, 4096)
	for i := range l.keys {
		l.keys[i] = key(r.intn(n))
	}
}

// prefill puts n generated pairs into st from nClients goroutines.
func prefill(st *kv.Store, n uint64, pair func(i uint64) (k, v uint64)) {
	var wg sync.WaitGroup
	for w := range nClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			for i := uint64(w); i < n; i += nClients {
				c.Put(pair(i))
			}
		}()
	}
	wg.Wait()
}

// verifyKeys runs check(c, i, rec) for every i in [0, n) from nClients
// goroutines, each with its own kv client and recorder.
func verifyKeys(st *kv.Store, n uint64, rec *recorder, check func(c *kv.Client, i uint64) error) {
	recs := make([]*recorder, nClients)
	var wg sync.WaitGroup
	for w := range nClients {
		recs[w] = newRecorder(w, false)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			for i := uint64(w); i < n; i += nClients {
				recs[w].check(check(c, i))
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		rec.merge(r)
	}
}

// ---- ycsb-a: 50% Get / 50% Put of existing keys, zipf 0.99 ----

type ycsbA struct {
	seed uint64
	n    uint64
	ks   keyspace
	z    *zipf
}

func newYCSBA(seed uint64) impl {
	const n = 1_000_000
	return &ycsbA{seed: seed, n: n, ks: newKeyspace(seed), z: newZipf(n, 0.99)}
}

type ycsbArm struct {
	w    *ycsbA
	st   *kv.Store
	lay  layers
	last [nClients][]uint32 // last version each client wrote, per item
}

func (w *ycsbA) setup(blocking bool) arm {
	a := &ycsbArm{w: w}
	a.st = kv.New(a.lay.treeFactory, kv.Options{Shards: nShards, Blocking: blocking, KeyRange: w.n})
	prefill(a.st, w.n, func(i uint64) (uint64, uint64) {
		k := w.ks.key(i)
		return k, makeValue(k, 0)
	})
	for c := range a.last {
		a.last[c] = make([]uint32, w.n)
	}
	a.lay.kv, a.lay.shardOf = a.st, a.st.ShardOf
	a.lay.sampleKeys(w.n, w.ks.key, w.seed)
	a.lay.fresh = func(i uint64) uint64 { return w.ks.key(w.n + i) }
	return a
}

func (a *ycsbArm) layers() *layers { return &a.lay }

type ycsbClient struct {
	a      *ycsbArm
	c      *kv.Client
	id     int
	r      *rng
	writes uint64
}

func (a *ycsbArm) clients() []client {
	cs := make([]client, nClients)
	for i := range cs {
		cs[i] = &ycsbClient{a: a, c: a.st.Register(), id: i, r: newRNG(a.w.seed, uint64(1+i))}
	}
	return cs
}

func (c *ycsbClient) step(rec *recorder) int64 {
	i := c.a.w.z.item(c.r)
	k := c.a.w.ks.key(i)
	if c.r.next()&1 == 0 {
		t0 := now()
		v, ok := c.c.Get(k)
		t1 := now()
		rec.op(kGet, t0, t1)
		if err := checkRead(k, v, ok); err != nil {
			rec.fail("get: %v", err)
		}
		return t1
	}
	ver := clientVersion(c.id, nClients, c.writes)
	c.writes++
	t0 := now()
	inserted := c.c.Put(k, makeValue(k, ver))
	t1 := now()
	rec.op(kPut, t0, t1)
	if inserted {
		rec.fail("put: key %#x was absent", k)
	}
	c.a.last[c.id][i] = ver
	return t1
}

func (c *ycsbClient) close() { c.c.Close() }

func (a *ycsbArm) verify(rec *recorder) {
	w := a.w
	verifyKeys(a.st, w.n, rec, func(c *kv.Client, i uint64) error {
		k := w.ks.key(i)
		v, ok := c.Get(k)
		var last [nClients]uint32
		for cl := range last {
			last[cl] = a.last[cl][i]
		}
		return checkFinal(k, v, ok, last[:])
	})
}

// ---- scan-read: 95% Scan / 5% Insert of new keys (YCSB-E) ----

type scanRead struct {
	seed   uint64
	n      uint64
	ks     keyspace
	z      *zipf
	zlen   *zipf
	sorted []uint64 // prefilled keys, ascending
}

const maxScanLen = 64

func newScanRead(seed uint64) impl {
	const n = 100_000
	w := &scanRead{seed: seed, n: n, ks: newKeyspace(seed), z: newZipf(n, 0.99), zlen: newZipf(maxScanLen, 0.99)}
	w.sorted = make([]uint64, n)
	for i := range w.sorted {
		w.sorted[i] = w.ks.key(uint64(i))
	}
	sort.Slice(w.sorted, func(i, j int) bool { return w.sorted[i] < w.sorted[j] })
	return w
}

type scanArm struct {
	w        *scanRead
	st       *kv.Store
	lay      layers
	inserted [nClients]int
}

func (w *scanRead) setup(blocking bool) arm {
	a := &scanArm{w: w}
	a.st = kv.New(a.lay.treeFactory, kv.Options{Shards: nShards, Blocking: blocking, KeyRange: w.n, OptimisticReads: true})
	prefill(a.st, w.n, func(i uint64) (uint64, uint64) {
		k := w.ks.key(i)
		return k, makeValue(k, 0)
	})
	a.lay.kv, a.lay.shardOf, a.lay.opt = a.st, a.st.ShardOf, true
	a.lay.sampleKeys(w.n, w.ks.key, w.seed)
	// Ladder keys sit above every client insert (2^32 per client).
	a.lay.fresh = func(i uint64) uint64 { return w.ks.key(w.n + 1<<40 + i) }
	return a
}

func (a *scanArm) layers() *layers { return &a.lay }

type scanClient struct {
	a   *scanArm
	c   *kv.Client
	id  int
	r   *rng
	ins uint64
}

func (a *scanArm) clients() []client {
	cs := make([]client, nClients)
	for i := range cs {
		cs[i] = &scanClient{a: a, c: a.st.Register(), id: i, r: newRNG(a.w.seed, uint64(1+i))}
	}
	return cs
}

func (c *scanClient) step(rec *recorder) int64 {
	w := c.a.w
	if c.r.intn(100) < 95 {
		lo := w.ks.key(w.z.item(c.r))
		limit := int(1 + w.zlen.rank(c.r))
		t0 := now()
		res := c.c.Scan(lo, math.MaxUint64, limit)
		t1 := now()
		rec.op(kScan, t0, t1)
		if err := checkScan(w.sorted, lo, math.MaxUint64, limit, res); err != nil {
			rec.fail("%v", err)
		}
		return t1
	}
	k := w.ks.key(w.n + c.ins*nClients + uint64(c.id))
	c.ins++
	t0 := now()
	inserted := c.c.Put(k, makeValue(k, 0))
	t1 := now()
	rec.op(kInsert, t0, t1)
	if inserted {
		c.a.inserted[c.id]++
	} else {
		rec.fail("insert: new key %#x was present", k)
	}
	return t1
}

func (c *scanClient) close() { c.c.Close() }

func (a *scanArm) verify(rec *recorder) {
	c := a.st.Register()
	defer c.Close()
	all := c.Scan(0, math.MaxUint64, -1)
	ins := 0
	for _, n := range a.inserted {
		ins += n
	}
	rec.check(checkCount(len(all), int(a.w.n), ins))
	rec.check(checkScan(a.w.sorted, 0, math.MaxUint64, len(all)+1, all))
}

// ---- transfer-snap: zipf Transfers plus periodic whole-store snapshots ----

type transferSnap struct {
	seed uint64
	n    uint64
	ks   keyspace
	z    *zipf
}

const (
	initialBalance = 1000
	// snapEvery is how many of its own Transfers client 0 runs between
	// snapshot cycles.
	snapEvery = 20_000
)

func newTransferSnap(seed uint64) impl {
	const n = 100_000
	return &transferSnap{seed: seed, n: n, ks: newKeyspace(seed), z: newZipf(n, 0.99)}
}

type transferArm struct {
	w   *transferSnap
	st  *txn.Store
	lay layers
}

func (w *transferSnap) setup(blocking bool) arm {
	a := &transferArm{w: w}
	mode := txn.LockFree
	if blocking {
		mode = txn.Blocking
	}
	a.st = txn.New(a.lay.tableFactory, txn.Options{Shards: nShards, Mode: mode, KeyRange: w.n})
	prefill(a.st.KV(), w.n, func(i uint64) (uint64, uint64) { return w.ks.key(i), initialBalance })
	a.lay.kv, a.lay.txn, a.lay.shardOf = a.st.KV(), a.st, a.st.KV().ShardOf
	a.lay.sampleKeys(w.n, w.ks.key, w.seed)
	a.lay.fresh = func(i uint64) uint64 { return w.ks.key(w.n + i) }
	return a
}

func (a *transferArm) layers() *layers { return &a.lay }

type transferClient struct {
	a  *transferArm
	c  *txn.Client
	id int
	r  *rng
}

func (a *transferArm) clients() []client {
	cs := make([]client, nClients)
	for i := range cs {
		cs[i] = &transferClient{a: a, c: a.st.Register(), id: i, r: newRNG(a.w.seed, uint64(1+i))}
	}
	return cs
}

func (c *transferClient) step(rec *recorder) int64 {
	w := c.a.w
	x := w.z.item(c.r)
	y := w.z.item(c.r)
	for y == x {
		y = w.z.item(c.r)
	}
	amount := 1 + c.r.intn(10)
	t0 := now()
	c.c.Transfer(w.ks.key(x), w.ks.key(y), amount)
	t1 := now()
	rec.op(kTransfer, t0, t1)
	if c.id == 0 && c.roundOver(rec) {
		t1 = c.snapshot(rec)
	}
	return t1
}

// roundOver reports whether client 0 has just finished a round: a
// multiple of snapEvery Transfers in this window, each multiple
// followed by its snapshot cycle.
func (c *transferClient) roundOver(rec *recorder) bool {
	return c.id == 0 && rec.ops%snapEvery == 0
}

// snapshot takes, iterates and closes a whole-store snapshot and checks
// that it conserves the accounts and their total.
func (c *transferClient) snapshot(rec *recorder) int64 {
	w := c.a.w
	t0 := now()
	sn := c.a.st.KV().Snapshot()
	t1 := now()
	count, sum := 0, uint64(0)
	sn.Iterate(0, math.MaxUint64, func(_, v uint64) bool {
		count++
		sum += v
		return true
	})
	t2 := now()
	sn.Close()
	t3 := now()
	root := rec.op(kSnapCycle, t0, t3)
	rec.child(kSnapActivate, root, root, t0, t1)
	rec.child(kSnapIterate, root, root, t1, t2)
	rec.child(kSnapClose, root, root, t2, t3)
	if err := checkConserved(count, sum, int(w.n), w.n*initialBalance); err != nil {
		rec.fail("snapshot: %v", err)
	}
	return t3
}

func (c *transferClient) close() { c.c.Close() }

func (a *transferArm) verify(rec *recorder) {
	w := a.w
	var mu sync.Mutex
	count, sum := 0, uint64(0)
	verifyKeys(a.st.KV(), w.n, rec, func(c *kv.Client, i uint64) error {
		v, ok := c.Get(w.ks.key(i))
		if ok {
			mu.Lock()
			count++
			sum += v
			mu.Unlock()
		}
		return nil
	})
	rec.check(checkConserved(count, sum, int(w.n), w.n*initialBalance))
	c := a.st.KV().Register()
	defer c.Close()
	rec.check(checkCount(len(c.Scan(0, math.MaxUint64, -1)), int(w.n), 0))
}

// ---- oversub-help: bare leaftree, GOMAXPROCS=1, injected stalls ----

type oversub struct {
	seed     uint64
	universe uint64
	ks       keyspace
	initial  []bool
}

const (
	oversubKeys = 1000
	stallEvery  = 100
)

func newOversub(seed uint64) impl {
	w := &oversub{seed: seed, universe: 2 * oversubKeys, ks: newKeyspace(seed)}
	w.initial = make([]bool, w.universe)
	for i := range oversubKeys {
		w.initial[i] = true
	}
	return w
}

type oversubArm struct {
	w    *oversub
	rt   *flock.Runtime
	tree *leaftree.Tree
	lay  layers
	net  [nClients][]int64
}

func (w *oversub) setup(blocking bool) arm {
	a := &oversubArm{w: w}
	if blocking {
		a.rt = flock.New(flock.Blocking())
	} else {
		a.rt = flock.New()
	}
	a.tree = leaftree.New(a.rt)
	p := a.rt.Register()
	for i := range w.universe {
		if w.initial[i] {
			k := w.ks.key(i)
			a.tree.Insert(p, k, makeValue(k, 0))
		}
	}
	p.Unregister()
	a.rt.SetStallInjection(stallEvery)
	for c := range a.net {
		a.net[c] = make([]int64, w.universe)
	}
	a.lay.rts, a.lay.trees = []*flock.Runtime{a.rt}, []*leaftree.Tree{a.tree}
	a.lay.shardOf = func(uint64) int { return 0 }
	a.lay.sampleKeys(oversubKeys, w.ks.key, w.seed)
	a.lay.fresh = func(i uint64) uint64 { return w.ks.key(w.universe + i) }
	return a
}

func (a *oversubArm) layers() *layers { return &a.lay }

type oversubClient struct {
	a      *oversubArm
	p      *flock.Proc
	id     int
	r      *rng
	writes uint64
}

func (a *oversubArm) clients() []client {
	cs := make([]client, nClients)
	for i := range cs {
		cs[i] = &oversubClient{a: a, p: a.rt.Register(), id: i, r: newRNG(a.w.seed, uint64(1+i))}
	}
	return cs
}

func (c *oversubClient) step(rec *recorder) int64 {
	w := c.a.w
	i := c.r.intn(w.universe)
	k := w.ks.key(i)
	t := c.a.tree
	var t1 int64
	switch c.r.intn(4) {
	case 0, 1:
		t0 := now()
		v, ok := t.Find(c.p, k)
		t1 = now()
		rec.op(kFind, t0, t1)
		if ok && !checksumOK(k, v) {
			rec.fail("find: key %#x value %#x fails its checksum", k, v)
		}
	case 2:
		v := makeValue(k, clientVersion(c.id, nClients, c.writes))
		c.writes++
		t0 := now()
		ok := t.Insert(c.p, k, v)
		t1 = now()
		rec.op(kInsertKey, t0, t1)
		if ok {
			c.a.net[c.id][i]++
		}
	default:
		t0 := now()
		ok := t.Delete(c.p, k)
		t1 = now()
		rec.op(kDeleteKey, t0, t1)
		if ok {
			c.a.net[c.id][i]--
		}
	}
	return t1
}

func (c *oversubClient) close() { c.p.Unregister() }

func (a *oversubArm) verify(rec *recorder) {
	w := a.w
	p := a.rt.Register()
	defer p.Unregister()
	net := make([]int64, w.universe)
	present := make([]bool, w.universe)
	for i := range w.universe {
		for c := range a.net {
			net[i] += a.net[c][i]
		}
		k := w.ks.key(i)
		v, ok := a.tree.Find(p, k)
		present[i] = ok
		if ok {
			rec.check(checkRead(k, v, ok))
		}
	}
	rec.check(checkNet(w.initial, net, present))
}
