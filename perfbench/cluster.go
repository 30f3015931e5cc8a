package main

import (
	"fmt"

	"atmosphere/internal/cluster"
	"atmosphere/internal/faults"
	"atmosphere/internal/obs"
)

// The cluster workload: the bench topology (Maglev LB + 4 kvstore
// backends, open loop at a fixed arrival rate per tick) under a
// recurring machine-kill plan — every backend is killed once per
// clKillPeriod ticks, staggered so one backend at a time is down,
// respawned after the supervisor delay, and re-admitted by health
// probes. A round is one cluster.Step tick; an op is one client
// request sent. Distributed tracing is on in traced passes only.
const (
	clTicks      = 6000 // ticks per pass
	clKillPeriod = 2400 // ticks between kills of one backend
	clKillStride = 600  // ticks between kills of consecutive backends
	clLatency    = "perfbench.latency"
)

type clusterW struct {
	seed uint64
	tr   *tracer
	c    *cluster.Cluster
	reg  *obs.Registry
}

func newCluster(seed uint64, tr *tracer) workload { return &clusterW{seed: seed, tr: tr} }

func (w *clusterW) rounds() int { return clTicks }

// killPlan kills backend b (node b+2) at ticks clKillStride·b +
// k·clKillPeriod, k ≥ 1.
func killPlan(backends int) faults.Plan {
	var p faults.Plan
	for b := 0; b < backends; b++ {
		p.Rules = append(p.Rules, faults.Rule{
			Kind:   faults.MachineKill,
			From:   uint64(b*clKillStride) * cluster.TickCycles,
			Period: clKillPeriod * cluster.TickCycles,
			Target: uint64(b + 2),
		})
	}
	return p
}

func (w *clusterW) setup() error {
	cfg := cluster.DefaultConfig()
	cfg.Name = "perfbench"
	cfg.Seed = w.seed
	cfg.Ticks = clTicks
	cfg.Plan = killPlan(cfg.Backends)
	cfg.DistTracing = w.tr != nil
	// The client's latency histogram lives in this registry, which is
	// how the benchmark counts requests within the latency limit.
	w.reg = obs.NewRegistry()
	cfg.Metrics = w.reg
	w.tr.begin(lClusterNew, nil)
	c, err := cluster.New(cfg)
	w.tr.end(err != nil)
	if err != nil {
		return err
	}
	w.c = c
	return nil
}

func (w *clusterW) round(int) error {
	w.tr.begin(lClusterStep, nil)
	w.c.Step()
	w.tr.end(false)
	return nil
}

// countAtMost counts a histogram's samples at or below limit, which
// must be one of its bucket bounds: the largest rank whose ceil-rank
// quantile stays within the limit.
func countAtMost(h *obs.Histogram, limit uint64) uint64 {
	n := h.Count()
	lo, hi := uint64(0), n // invariant: rank lo is within, rank hi+1 is not
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.Quantile((float64(mid)-0.5)/float64(n)) <= limit {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (w *clusterW) finish(p *pass) error {
	r := w.c.Report()
	p.ops = r.Sent
	p.attempted = r.Sent + r.Shed
	p.failed = r.GaveUp + r.Shed
	p.withinSLO = countAtMost(w.reg.Histogram(clLatency, nil), sloCycles)
	p.simOps, p.simCycles = r.Responses, r.Ticks*cluster.TickCycles
	p.latP50, p.latP99 = r.P50, r.P99
	for i := 0; i <= cluster.DefaultConfig().Backends; i++ {
		p.clocks = append(p.clocks, w.c.Machine(i).TotalCycles())
	}
	p.traceHash = r.TraceHash
	p.sim["cluster.kernel_cycles"] = float64(r.KernelCycles)
	p.sim["cluster.retries"] = float64(r.Retries)
	p.sim["cluster.timeouts"] = float64(r.Timeouts)
	p.sim["cluster.misrouted"] = float64(r.Misrouted)
	p.sim["cluster.dropped"] = float64(r.DroppedNoBackend + r.DroppedDead + r.DroppedMalformed + r.DroppedLink)
	if r.Kills == 0 || r.Respawns == 0 {
		return fmt.Errorf("kill plan did not fire: %d kills, %d respawns", r.Kills, r.Respawns)
	}
	if w.tr == nil {
		return nil
	}
	// Traced: the collector must account for every response and every
	// completed trace must be the clean 3-hop chain.
	if r.Responses != r.DistCompleted+r.DistStale || r.DistIrregular != 0 {
		fmt.Printf("dist reconciliation failed: responses %d != completed %d + stale %d, irregular %d\n",
			r.Responses, r.DistCompleted, r.DistStale, r.DistIrregular)
		p.failed++
	}
	attr := w.c.Dist().Attribution(0)
	for _, row := range attr.Rows {
		if row.Label != "p50" && row.Label != "p99" {
			continue
		}
		for name, v := range map[string]uint64{
			"queue": row.Rec.Comp.ClientQueue, "link": row.Rec.Comp.Link, "lb": row.Rec.Comp.LB,
			"backend": row.Rec.Comp.Backend, "backoff": row.Rec.Comp.Backoff,
		} {
			p.traced["dist."+name+"."+row.Label+"_cycles"] = float64(v)
		}
	}
	p.traced["dist.trace_dropped"] = float64(r.DistTraceDropped)
	p.traced["dist.irregular"] = float64(r.DistIrregular)
	return nil
}
