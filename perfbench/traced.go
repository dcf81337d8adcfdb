package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// The traced run. It measures the same workload as the end-to-end run,
// but with the library's obs counters (and, in one window kind, its
// flight recorder) switched on, with spans recorded around the
// benchmark's own calls into each layer, and followed by a ladder of
// uncontended single-client rungs. Its figures are per-layer: they
// explain the end-to-end metrics, and are not compared against them.

// windowKind is one lock-free window configuration of the traced run.
type windowKind int

const (
	wOff   windowKind = iota // nothing on: the untraced baseline
	wObs                     // obs counters on
	wTrace                   // flight recorder on
	wFull                    // obs counters on and benchmark spans recorded
	numWindowKinds
)

var windowKindNames = [numWindowKinds]string{"off", "obs", "trace", "full"}

// tracedRounds is how many times the lock-free arm cycles through the
// four window kinds; interleaving them keeps slow drift in the machine's
// load out of the on/off ratios.
const tracedRounds = 2

// tally accumulates the windows of one kind.
type tally struct {
	rec      *recorder
	ops      uint64
	elapsed  float64
	gcs      uint32
	pauseNS  uint64
	counters obs.Counts
}

func (t *tally) add(w *window, c obs.Counts) {
	if t.rec == nil {
		t.rec = newRecorder(0, false)
	}
	t.rec.merge(w.rec)
	t.ops += w.rec.ops
	t.elapsed += w.elapsed
	t.gcs += w.gcs
	t.pauseNS += w.pauseNS
	t.counters = t.counters.Add(c)
}

func (t *tally) mops() float64 { return float64(t.ops) / t.elapsed / 1e6 }

// perKop normalizes a counter to events per thousand completed ops.
func (t *tally) perKop(c obs.Counter) float64 {
	return float64(t.counters.Get(c)) / float64(t.ops) * 1e3
}

// windowOut and traceFile are the JSON written when the run ends.
type windowOut struct {
	Mode     string            `json:"mode"`
	Kind     string            `json:"kind"`
	Ops      uint64            `json:"ops"`
	Seconds  float64           `json:"seconds"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

type spanOut struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Windows  []windowOut        `json:"windows"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []spanOut          `json:"spans"`
}

func runTraced(cfg config) *result {
	im := cfg.w.build(cfg.seed)
	total := newRecorder(0, false)
	spans := newRecorder(0, true) // ladder and snapshot rung spans
	vals := map[string]float64{}
	out := &traceFile{Workload: cfg.w.name, Seed: cfg.seed}
	var lf [numWindowKinds]tally
	var bl tally
	for _, m := range modes {
		a, _ := setupArm(im, m.blocking, 1)
		cs := a.clients()
		total.count(runWindow(cs, warmup, false, false).rec)
		measure := func(k windowKind, dur float64) (*window, obs.Counts) {
			obs.SetEnabled(k == wObs || k == wFull)
			trace.SetEnabled(k == wTrace)
			runtime.GC()
			c0 := obs.Snapshot()
			w := runWindow(cs, dur, true, k == wFull)
			c := obs.Snapshot().Sub(c0)
			obs.SetEnabled(false)
			trace.SetEnabled(false)
			total.count(w.rec)
			wo := windowOut{Mode: m.name, Kind: windowKindNames[k], Ops: w.rec.ops, Seconds: w.elapsed}
			if k == wObs || k == wFull {
				wo.Counters = c.Nonzero()
			}
			out.Windows = append(out.Windows, wo)
			return w, c
		}
		if m.blocking {
			bl.add(measure(wFull, cfg.seconds*(1-cfg.w.lfShare)))
		} else {
			dur := cfg.seconds * cfg.w.lfShare / float64(tracedRounds*numWindowKinds)
			for range tracedRounds {
				for k := range numWindowKinds {
					lf[k].add(measure(k, dur))
				}
			}
		}
		closeAll(cs)
		vrec := newRecorder(0, false)
		a.verify(vrec)
		total.count(vrec)
		l := &ladder{mode: m.name, vals: vals, rec: spans, total: total, seed: cfg.seed, own: a.layers()}
		l.run(!m.blocking, &lf[wFull])
		l.release()
		runtime.KeepAlive(a)
	}

	full, off := &lf[wFull], &lf[wOff]
	vals["epoch.advances_per_kop"] = full.perKop(obs.EpochAdvances)
	vals["epoch.reclaim_lag_epochs"] = ratio(full.counters.Get(obs.EpochReclaimLagEpochs), full.counters.Get(obs.EpochReclaimBatches))
	vals["core.pool_hit_rate"] = ratio(full.counters.Get(obs.PoolHits), full.counters.Get(obs.PoolHits)+full.counters.Get(obs.PoolMisses))
	vals["core.pool_spills_per_kop"] = full.perKop(obs.PoolSpills)
	vals["core.install_cas_fails_per_kop"] = full.perKop(obs.InstallCASFails)
	vals["core.helps_per_kop"] = full.perKop(obs.HelpsGiven)
	vals["core.replays_per_kop"] = full.perKop(obs.ThunkReplays)
	vals["core.strict_spins_per_kop"] = bl.perKop(obs.StrictSpins)
	vals["engine.opt_restarts_per_kop"] = full.perKop(obs.OptRestarts)
	vals["engine.opt_escalations_per_kop"] = full.perKop(obs.OptEscalations)
	vals["txn.helped_per_kop"] = full.perKop(obs.TxnHelped)
	vals["gc.cycles_per_s"] = float64(off.gcs) / off.elapsed
	vals["gc.pause_us_per_kop"] = float64(off.pauseNS) / 1e3 / float64(off.ops) * 1e3
	vals["obs.on_slowdown"] = lf[wObs].mops() / off.mops()
	vals["trace.on_slowdown"] = lf[wTrace].mops() / off.mops()
	vals["bench.traced_lf_mops_ratio"] = full.mops() / off.mops()
	vals["bench.untraced_lf_mops"] = off.mops()
	vals["ladder.put_coverage"] = vals["ladder.sum_ns.lf"] / (vals["kv.put_p50_us"] * 1e3)

	res := &result{Metrics: map[string]metric{}}
	for k, v := range vals {
		res.Metrics[k] = metric{v, unitOf(k)}
	}
	out.Metrics = vals
	for _, s := range append(full.rec.spans, append(bl.rec.spans, spans.spans...)...) {
		out.Spans = append(out.Spans, spanOut{Req: s.req, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.end})
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := writeJSON(path, out); err != nil {
		total.fail("writing the trace: %v", err)
	} else {
		fmt.Printf("spans and counters written to %s\n", path)
	}
	printLadder(vals)
	finish(res, total)
	return res
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".lf"), ".bl")
	for _, u := range []struct{ suffix, unit string }{
		{"_ns_per_key", "ns/key"}, {"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"},
		{"_us_per_kop", "us/kop"}, {"_per_kop", "1/kop"}, {"_allocs", "allocs/op"},
		{"_epochs", "epochs"}, {"_mb_per_s", "MB/s"}, {"_keys_per_s", "keys/s"},
		{"_per_s", "1/s"}, {"_mops", "Mop/s"},
	} {
		if strings.HasSuffix(base, u.suffix) {
			return u.unit
		}
	}
	return "ratio"
}

// printLadder prints the ladder's rung deltas beside the measured costs
// they should add up to.
func printLadder(v map[string]float64) {
	for _, m := range []string{"lf", "bl"} {
		fmt.Printf("ladder %s: guard %.1f + trylock %.1f + store commit %.1f + structure op %.1f + kv op %.1f = %.1f ns",
			m, v["ladder.d_guard_ns."+m], v["ladder.d_trylock_ns."+m], v["ladder.d_commit_ns."+m],
			v["ladder.d_structure_ns."+m], v["ladder.d_kv_ns."+m], v["ladder.sum_ns."+m])
		fmt.Printf("  (kv.put_ns.%s %.1f ns)\n", m, v["kv.put_ns."+m])
	}
	fmt.Printf("ladder lf sum against the workload's kv.put p50 (%.2f us): %.2f\n", v["kv.put_p50_us"], v["ladder.put_coverage"])
	fmt.Printf("traced / untraced lock-free throughput: %.3f (untraced %.4f Mop/s)\n", v["bench.traced_lf_mops_ratio"], v["bench.untraced_lf_mops"])
}

// ---- the ladder ----

// ladder runs the uncontended single-client rungs of one arm. Rungs run
// on the arm's own store where it has the layer, and otherwise on an
// auxiliary arm of the workload that has it (a scan-read store for the
// leaftree/kv/optimistic layers, a transfer-snap store for the
// hashtable/txn layers), built in the same lock mode.
type ladder struct {
	mode  string
	vals  map[string]float64
	rec   *recorder
	total *recorder
	seed  uint64
	own   *layers
	aux   map[string]arm
	procs map[*flock.Runtime]*flock.Proc
}

func (l *ladder) auxArm(name string) *layers {
	if a, ok := l.aux[name]; ok {
		return a.layers()
	}
	if l.aux == nil {
		l.aux = map[string]arm{}
	}
	var im impl
	if name == "scan-read" {
		im = newScanRead(l.seed)
	} else {
		im = newTransferSnap(l.seed)
	}
	a := im.setup(l.mode == "bl")
	l.aux[name] = a
	return a.layers()
}

// proc returns this ladder's Proc on rt, registering it once.
func (l *ladder) proc(rt *flock.Runtime) *flock.Proc {
	if p, ok := l.procs[rt]; ok {
		return p
	}
	if l.procs == nil {
		l.procs = map[*flock.Runtime]*flock.Proc{}
	}
	p := rt.Register()
	l.procs[rt] = p
	return p
}

func (l *ladder) release() {
	for _, p := range l.procs {
		p.Unregister()
	}
}

func (l *ladder) set(name string, v float64) { l.vals[name] = v }

// rung is one ladder step: fn(i) performs its i-th call.
type rung struct {
	name string
	fn   func(i int)
	n    int       // calls per batch
	per  []float64 // ns per call of each batch
}

const (
	batchNS = 2e6 // target batch length
	rounds  = 9   // batches per rung
)

// measure times every rung in interleaved rounds of one batch each, so
// drift in the machine's speed is shared by all rungs instead of
// landing on whichever ran last, and returns each rung's median
// nanoseconds per call. Each timed batch repeats an untimed pass over
// the same calls, so every rung is timed with its own working set in
// cache rather than with whatever the previous rung left there. Each
// timed batch is a span.
func (l *ladder) measure(rs []*rung) map[string]float64 {
	for _, r := range rs {
		r.n = 16
		for r.n < 1<<20 {
			t0 := now()
			for i := range r.n {
				r.fn(i)
			}
			if now()-t0 > batchNS/2 {
				break
			}
			r.n *= 2
		}
	}
	for round := range rounds {
		for _, r := range rs {
			off := (round + 1) * r.n
			for i := range r.n {
				r.fn(off + i) // warm the batch's working set
			}
			t0 := now()
			for i := range r.n {
				r.fn(off + i)
			}
			t1 := now()
			l.rec.span(r.name, 0, 0, t0, t1)
			r.per = append(r.per, float64(t1-t0)/float64(r.n))
		}
	}
	out := map[string]float64{}
	for _, r := range rs {
		sort.Float64s(r.per)
		out[r.name] = r.per[len(r.per)/2]
	}
	return out
}

// allocs returns the heap allocations per call of fn over n calls.
func allocs(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range n {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// p50 times n single calls and returns their median in microseconds:
// the stand-in for an in-workload p50 on a workload that does not
// issue that operation.
func p50(n int, fn func(i int)) float64 {
	var h hist
	for i := range n {
		t0 := now()
		fn(i)
		h.add(now() - t0)
	}
	return h.quantile(0.5) / 1e3
}

// groups returns key groups of k keys each from k distinct shards,
// rotating through the shards.
func groups(ly *layers, k int) [][]uint64 {
	byShard := make([][]uint64, nShards)
	for _, key := range ly.keys {
		s := ly.shardOf(key)
		byShard[s] = append(byShard[s], key)
	}
	out := make([][]uint64, 256)
	for g := range out {
		for j := range k {
			s := (g + j) % nShards
			out[g] = append(out[g], byShard[s][g%len(byShard[s])])
		}
	}
	return out
}

func (l *ladder) run(lockFree bool, full *tally) {
	m := l.mode
	own := l.own
	pick := func(ok bool, alt string) *layers {
		if ok {
			return own
		}
		return l.auxArm(alt)
	}
	treeL := pick(len(own.trees) > 0, "scan-read")
	tableL := pick(len(own.tables) > 0, "transfer-snap")
	kvL := pick(own.kv != nil, "scan-read")
	txnL := pick(own.txn != nil, "transfer-snap")
	optL := pick(own.opt, "scan-read")

	// Core rungs on the arm's own runtime.
	p := l.proc(own.rts[0])
	var lk flock.Lock
	nop := func(*flock.Proc) bool { return true }
	var mu flock.Mutable[uint64]
	mu.Init(0)
	bump := func(hp *flock.Proc) bool {
		mu.Store(hp, mu.Load(hp)+1)
		return true
	}
	tryLock := func(int) {
		p.Begin()
		lk.TryLock(p, nop)
		p.End()
	}

	// Structure rungs, on the structures and Procs of a layer set.
	keepOld := func(old uint64, _ bool) uint64 { return old }
	shard := func(ly *layers, k uint64) (int, *flock.Proc) {
		s := ly.shardOf(k)
		return s, l.proc(ly.rts[s])
	}
	upsert := func(ly *layers) func(i int) {
		return func(i int) {
			k := ly.keys[i%len(ly.keys)]
			s, p := shard(ly, k)
			if len(ly.trees) > 0 {
				ly.trees[s].Upsert(p, k, keepOld)
			} else {
				ly.tables[s].Upsert(p, k, keepOld)
			}
		}
	}

	// kv rungs write every key back with the value it holds.
	kc := kvL.kv.Register()
	defer kc.Close()
	kk := kvL.keys
	kvals := make([]uint64, len(kk))
	for i, k := range kk {
		kvals[i], _ = kc.Get(k)
	}
	get := func(i int) { kc.Get(kk[i%len(kk)]) }
	put := func(i int) { kc.Put(kk[i%len(kk)], kvals[i%len(kk)]) }

	tc := txnL.txn.Register()
	defer tc.Close()
	tk := txnL.keys
	transfer := func(i int) {
		a, b := tk[(i/2)%len(tk)], tk[(i/2+1)%len(tk)]
		if i%2 == 1 {
			a, b = b, a
		}
		tc.Transfer(a, b, 1)
	}

	rs := []*rung{
		{name: "epoch.guard", fn: func(int) { p.Begin(); p.End() }},
		{name: "core.trylock", fn: tryLock},
		{name: "core.store_commit", fn: func(int) {
			p.Begin()
			lk.TryLock(p, bump)
			p.End()
		}},
		{name: "leaftree.find", fn: func(i int) {
			k := treeL.keys[i%len(treeL.keys)]
			s, p := shard(treeL, k)
			treeL.trees[s].Find(p, k)
		}},
		{name: "leaftree.upsert", fn: upsert(treeL)},
		{name: "leaftree.insert_delete", fn: func(i int) {
			k := treeL.fresh(uint64(i % 4096))
			s, p := shard(treeL, k)
			treeL.trees[s].Insert(p, k, makeValue(k, 0))
			treeL.trees[s].Delete(p, k)
		}},
		{name: "hashtable.find", fn: func(i int) {
			k := tableL.keys[i%len(tableL.keys)]
			s, p := shard(tableL, k)
			tableL.tables[s].Find(p, k)
		}},
		{name: "hashtable.upsert", fn: upsert(tableL)},
		// The ladder's structure rung runs on the kv rungs' own
		// structures, so that its deltas telescope on one store.
		{name: "ladder.structure", fn: upsert(kvL)},
		{name: "kv.get", fn: get},
		{name: "kv.put", fn: put},
		{name: "txn.transfer", fn: transfer},
	}
	for _, k := range []int{1, 2, 4, 8} {
		g := groups(txnL, k)
		rs = append(rs, &rung{name: fmt.Sprintf("engine.atomic_group_%d", k), fn: func(i int) { tc.MultiGet(g[i%len(g)]) }})
	}
	oc := optL.kv.Register()
	defer oc.Close()
	if lockFree {
		for _, k := range []int{1, 2, 4, 8} {
			g := groups(optL, k)
			rs = append(rs, &rung{name: fmt.Sprintf("engine.opt_group_%d", k), fn: func(i int) { oc.MultiGet(g[i%len(g)]) }})
		}
	}
	t := l.measure(rs)

	for _, name := range []string{"core.trylock", "core.store_commit", "leaftree.find", "leaftree.upsert",
		"leaftree.insert_delete", "hashtable.find", "hashtable.upsert", "kv.get", "kv.put", "txn.transfer"} {
		l.set(name+"_ns."+m, t[name])
	}
	for _, k := range []int{1, 2, 4, 8} {
		l.set(fmt.Sprintf("engine.atomic_group_%d_ns.%s", k, m), t[fmt.Sprintf("engine.atomic_group_%d", k)])
		if lockFree {
			l.set(fmt.Sprintf("engine.opt_group_%d_ns", k), t[fmt.Sprintf("engine.opt_group_%d", k)])
		}
	}
	guard, trylock, commit := t["epoch.guard"], t["core.trylock"], t["core.store_commit"]
	structure, kvPut := t["ladder.structure"], t["kv.put"]
	l.set("ladder.d_guard_ns."+m, guard)
	l.set("ladder.d_trylock_ns."+m, trylock-guard)
	l.set("ladder.d_commit_ns."+m, commit-trylock)
	l.set("ladder.d_structure_ns."+m, structure-commit)
	l.set("ladder.d_kv_ns."+m, kvPut-structure)
	l.set("ladder.sum_ns."+m, guard+(trylock-guard)+(commit-trylock)+(structure-commit)+(kvPut-structure))
	l.set("txn.transfer_allocs."+m, allocs(1<<12, transfer))
	if !lockFree {
		return
	}
	l.set("epoch.guard_ns", guard)
	l.set("core.trylock_allocs.lf", allocs(1<<14, tryLock))

	ok := optL.keys
	t0 := now()
	scanned := 0
	for i := range 2000 {
		scanned += len(oc.Scan(ok[i%len(ok)], math.MaxUint64, maxScanLen))
	}
	t1 := now()
	l.rec.span("engine.scan", 0, 0, t0, t1)
	l.set("engine.scan_ns_per_key", float64(t1-t0)/float64(scanned))

	// In-workload p50s the workload does not issue: single-client
	// stand-ins on the same layers.
	fallback := func(name string, k kind, fn func(i int)) {
		if h := full.rec.kinds[k]; h.n > 0 {
			l.set(name, h.quantile(0.5)/1e3)
		} else {
			l.set(name, p50(2000, fn))
		}
	}
	fallback("kv.get_p50_us", kGet, get)
	fallback("kv.put_p50_us", kPut, put)
	zlen := newZipf(maxScanLen, 0.99)
	r := newRNG(l.seed, 0x7363616e)
	fallback("kv.scan_p50_us", kScan, func(i int) {
		oc.Scan(ok[i%len(ok)], math.MaxUint64, int(1+zlen.rank(r)))
	})
	fallback("kv.insert_p50_us", kInsert, func(i int) {
		k := kvL.fresh(uint64(1<<20 + i))
		kc.Put(k, makeValue(k, 0))
	})
	fallback("txn.transfer_p50_us", kTransfer, transfer)

	l.snapshots(kvL.kv)
}

// snapshots runs the snapshot rungs on a kv store: activation,
// whole-store iteration and full cycles, a dump, and a restore of that
// dump into an empty hashtable store. (The restore target is a
// hashtable because a dump is in ascending key order, which an
// unbalanced leaftree would take as its worst-case insertion order.)
func (l *ladder) snapshots(st *kv.Store) {
	const cycles = 3
	act := make([]float64, cycles)
	iter := make([]float64, cycles)
	cyc := make([]float64, cycles)
	keys := 0
	for c := range cycles {
		t0 := now()
		sn := st.Snapshot()
		t1 := now()
		keys = 0
		sn.Iterate(0, math.MaxUint64, func(uint64, uint64) bool { keys++; return true })
		t2 := now()
		sn.Close()
		t3 := now()
		root := l.rec.span("snapshot.cycle", 0, 0, t0, t3)
		l.rec.span("snapshot.activate", root, root, t0, t1)
		l.rec.span("snapshot.iterate", root, root, t1, t2)
		l.rec.span("snapshot.close", root, root, t2, t3)
		act[c], iter[c], cyc[c] = float64(t1-t0), float64(t2-t1), float64(t3-t0)
	}
	med := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] }
	l.set("snapshot.activate_us", med(act)/1e3)
	l.set("snapshot.iterate_ns_per_key", med(iter)/float64(keys))
	l.set("snapshot.cycle_ms", med(cyc)/1e6)

	var buf bytes.Buffer
	sn := st.Snapshot()
	t0 := now()
	err := sn.Dump(&buf)
	t1 := now()
	sn.Close()
	l.rec.span("snapshot.dump", 0, 0, t0, t1)
	l.total.check(err)
	l.set("snapshot.dump_mb_per_s", float64(buf.Len())/1e6/(float64(t1-t0)/1e9))

	dst := kv.New(new(layers).tableFactory, kv.Options{Shards: nShards, KeyRange: uint64(keys)})
	t0 = now()
	n, err := dst.Restore(&buf)
	t1 = now()
	l.rec.span("snapshot.restore", 0, 0, t0, t1)
	l.total.check(err)
	l.total.check(checkCount(n, keys, 0))
	l.set("snapshot.restore_keys_per_s", float64(n)/(float64(t1-t0)/1e9))
}
