package main

import (
	"sync"
	"sync/atomic"

	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/latency"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// layerPass measures the layers that sit inside the engine's per-IO loop —
// event generation, latency sampling, trace emit and sketch ingest — with
// a standalone pass over the sim workload's disks and window that calls
// each layer's public function itself: Fleet.GenEvents fills a columnar
// batch, and every full batch goes through latency.Table.SampleInto,
// diting.Tracer.EmitBatch and sketch.Set.ObserveBatch in the engine's
// order. Each GenEvents call is a span whose children are the batch calls
// it triggers, so its self time is the generator's own cost. nproc
// goroutines deal the disks; the per-goroutine sketches are merged last.
func layerPass(r *Run, fleet *workload.Fleet) error {
	top := fleet.Topology
	table := latency.Default().Compile()
	nVDs := len(top.VDs)
	const group = "layers"

	var next atomic.Int64
	events := make([]int, r.Procs)
	sets := make([]*sketch.Set, r.Procs)
	var wg sync.WaitGroup
	for w := 0; w < r.Procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := diting.Acquire(simTraceEvery)
			defer tr.Release()
			b := trace.GetBatch(trace.DefaultBatchCap)
			defer b.Release()
			set := sketch.NewSet(sketch.Config{})
			sets[w] = set

			var (
				parent int
				rng    *xrand.Rand
				vd     cluster.VDID
				dc     cluster.DCID
				node   cluster.NodeID
				vm     *cluster.VM
			)
			flush := func() {
				if b.Len() == 0 {
					return
				}
				id := r.Trace.Begin("latency.SampleInto", group, parent)
				for i := 0; i < b.Len(); i++ {
					table.SampleInto(rng.Rand, b.Op[i], b.Size[i], &b.Lat[i])
				}
				r.Trace.End(id)
				id = r.Trace.Begin("diting.EmitBatch", group, parent)
				tr.EmitBatch(b)
				r.Trace.End(id)
				id = r.Trace.Begin("sketch.ObserveBatch", group, parent)
				set.ObserveBatch(b)
				r.Trace.End(id)
				b.Reset()
			}
			emit := func(ev workload.Event) {
				if b.Full() {
					flush()
				}
				i := b.Next()
				seg := top.SegmentOfOffset(vd, ev.Offset)
				b.TraceID[i] = tr.NextTraceID()
				b.TimeUS[i] = ev.TimeUS
				b.Op[i] = ev.Op
				b.Size[i] = ev.Size
				b.Offset[i] = ev.Offset
				b.DC[i] = dc
				b.Node[i] = node
				b.User[i] = vm.User
				b.VM[i] = vm.ID
				b.VD[i] = vd
				b.QP[i] = ev.QP
				b.Storage[i] = fleet.Seg2BS.BSOf(seg)
				b.Segment[i] = seg
				events[w]++
			}
			for {
				v := int(next.Add(1) - 1)
				if v >= nVDs {
					return
				}
				vd = cluster.VDID(v)
				vm = &top.VMs[top.VDs[v].VM]
				node = vm.Node
				dc = top.Nodes[node].DC
				rng = xrand.Get(r.Seed*1_000_003 + int64(v))
				tr.StartStream(uint64(v+1) << 40)
				parent = r.Trace.Begin("workload.GenEvents", group, 0)
				fleet.GenEvents(vd, simWindowSec, simEventEvery, emit)
				flush()
				r.Trace.End(parent)
				rng.Release()
			}
		}(w)
	}
	wg.Wait()

	id := r.Trace.Begin("sketch.Merge", group, 0)
	for _, s := range sets[1:] {
		sets[0].Merge(s)
	}
	r.Trace.End(id)

	total := 0
	for _, n := range events {
		total += n
	}
	spans := r.Trace.Spans()
	self := SelfTimes(spans)
	n := float64(total)
	r.Metrics["workload.events_per_s"] = n / secs(self["workload.GenEvents"])
	r.Metrics["latency.samples_per_s"] = n / secs(Total(spans, "latency.SampleInto"))
	r.Metrics["diting.emit_per_s"] = n / secs(Total(spans, "diting.EmitBatch"))
	r.Metrics["sketch.ingest_per_s"] = n / secs(Total(spans, "sketch.ObserveBatch"))
	r.Metrics["sketch.merges_per_s"] = ratio(float64(len(sets)-1), secs(Total(spans, "sketch.Merge")))
	return nil
}
