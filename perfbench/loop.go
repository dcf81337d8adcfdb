package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// kind names an operation (or a span around a call into a layer). Ops
// of a measured kind count toward throughput and the end-to-end
// latency histogram; the others (snapshot cycles and their parts) are
// timed and traced but kept out of both, so a rare whole-store
// iteration does not stand in for a per-request latency.
type kind uint8

const (
	kGet kind = iota
	kPut
	kScan
	kInsert
	kTransfer
	kFind
	kInsertKey
	kDeleteKey
	kSnapCycle
	kSnapActivate
	kSnapIterate
	kSnapClose
	numKinds
)

var kindNames = [numKinds]string{
	"kv.get", "kv.put", "kv.scan", "kv.insert", "txn.transfer",
	"leaftree.find", "leaftree.insert", "leaftree.delete",
	"snapshot.cycle", "snapshot.activate", "snapshot.iterate", "snapshot.close",
}

var measured = [numKinds]bool{
	kGet: true, kPut: true, kScan: true, kInsert: true, kTransfer: true,
	kFind: true, kInsertKey: true, kDeleteKey: true,
}

// span is one traced call into a layer: its request (all spans of one
// client operation share req), the span that caused it (0 for a
// request's root), its name and its start and end clock readings.
type span struct {
	req, id, parent uint64
	name            string
	start, end      int64
}

// spanCap bounds the spans one client keeps per window; every op still
// lands in the per-kind histograms, which give the traced p50s.
const spanCap = 1 << 12

// recorder is one client's private measurement state for a window. A
// recorder is only touched by its own client goroutine.
type recorder struct {
	lat       hist // measured kinds only
	kinds     [numKinds]*hist
	ops       uint64 // completed measured ops
	attempted uint64 // every op issued, checks included
	failed    uint64
	errs      []string
	tracing   bool
	spans     []span
	nextID    uint64
	client    uint64
}

func newRecorder(client int, tracing bool) *recorder {
	r := &recorder{tracing: tracing, client: uint64(client)}
	for i := range r.kinds {
		r.kinds[i] = new(hist)
	}
	if tracing {
		r.spans = make([]span, 0, spanCap)
	}
	return r
}

// newID returns an identifier unique across clients.
func (r *recorder) newID() uint64 {
	r.nextID++
	return r.nextID<<8 | r.client
}

// op records one completed call of kind k that ran from t0 to t1, as a
// request root span when tracing, and returns its span id.
func (r *recorder) op(k kind, t0, t1 int64) uint64 {
	return r.child(k, 0, 0, t0, t1)
}

// child records a call of kind k caused by span parent of request req
// (req 0 starts a new request).
func (r *recorder) child(k kind, req, parent uint64, t0, t1 int64) uint64 {
	d := t1 - t0
	r.attempted++
	if measured[k] {
		r.ops++
		r.lat.add(d)
	}
	r.kinds[k].add(d)
	return r.span(kindNames[k], req, parent, t0, t1)
}

// span records a traced span when tracing and returns its id (0 when
// not tracing).
func (r *recorder) span(name string, req, parent uint64, t0, t1 int64) uint64 {
	if !r.tracing {
		return 0
	}
	id := r.newID()
	if req == 0 {
		req = id
	}
	if len(r.spans) < spanCap {
		r.spans = append(r.spans, span{req: req, id: id, parent: parent, name: name, start: t0, end: t1})
	}
	return id
}

// fail records a correctness violation.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check records one verification operation and its outcome.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// merge adds o's measurements, counts and spans into r.
func (r *recorder) merge(o *recorder) {
	r.lat.merge(&o.lat)
	for i := range r.kinds {
		r.kinds[i].merge(o.kinds[i])
	}
	r.ops += o.ops
	r.count(o)
	r.spans = append(r.spans, o.spans...)
}

// count adds o's attempted and failed operations (and violations) to r.
func (r *recorder) count(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e)
		}
	}
}

// client is one closed-loop client: it issues its next operation only
// after the previous one returned. step issues one operation, times
// the library call itself into rec (so result checks stay outside the
// latency), checks the result, and returns the clock reading at the
// end of the call.
type client interface {
	step(rec *recorder) int64
	close()
}

// rounder is implemented by a leading client whose operations come in
// rounds (transfer-snap's client 0: a fixed count of Transfers, then a
// snapshot cycle). A measured window then ends only at a round's end,
// so every window holds whole rounds and its throughput does not
// depend on where the deadline cut a round.
type rounder interface {
	roundOver(rec *recorder) bool
}

// window is the outcome of one measured interval.
type window struct {
	rec     *recorder
	elapsed float64 // seconds
	mallocs uint64
	gcs     uint32
	pauseNS uint64
}

func (w *window) mops() float64 { return float64(w.rec.ops) / w.elapsed / 1e6 }

// runWindow runs every client in its own goroutine and waits for all
// of them. Client 0 leads: it stops at the first operation boundary
// past dur seconds (with whole set, at the first round end past it),
// and the other clients stop as soon as they see it has. Allocation
// and GC figures are MemStats deltas over the window, so they cover
// the library calls and the clients' checks (which allocate nothing of
// their own).
func runWindow(clients []client, dur float64, whole, tracing bool) *window {
	recs := make([]*recorder, len(clients))
	for i := range recs {
		recs[i] = newRecorder(i, tracing)
	}
	var stop atomic.Bool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	deadline := start + int64(dur*1e9)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := recs[i]
			if i > 0 {
				for !stop.Load() {
					c.step(rec)
				}
				return
			}
			defer stop.Store(true)
			r, rounds := c.(rounder)
			for {
				if c.step(rec) >= deadline && (!whole || !rounds || r.roundOver(rec)) {
					return
				}
			}
		}()
	}
	wg.Wait()
	end := now()
	runtime.ReadMemStats(&m1)
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return &window{
		rec: recs[0], elapsed: float64(end-start) / 1e9,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC, pauseNS: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}
