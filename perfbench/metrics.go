package main

// metricDef is one entry of BENCHMARK.json's metric lists; metrics_test
// checks that the file and these lists agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEndMetrics are reported by every untraced run of every workload.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"host_ops_per_s", "1/s", "higher", 0.25},
		{"host_round_p50_us", "us", "lower", 0.25},
		{"host_round_p99_us", "us", "lower", 0.25},
		{"host_allocs_per_op", "allocs", "lower", 0.1},
		{"host_bytes_per_op", "B", "lower", 0.05},
		{"heap_mib", "MiB", "lower", 0.1},
		{"sim_mops", "Mops/s", "higher", 0.05},
		{"sim_lat_p50_cycles", "cycles", "lower", 0.05},
		{"sim_lat_p99_cycles", "cycles", "lower", 0.05},
		{"sim_slo_ok_ratio", "ratio", "higher", 0.01},
		{"success_ratio", "ratio", "higher", 0.01},
	}
}

// layerSuffixes are the span aggregates each boundary reports.
var layerSuffixes = []struct{ suffix, unit string }{
	{".count", "count"}, {".busy_ms", "ms"}, {".self_ms", "ms"}, {".errno_count", "count"},
}

// perLayerMetrics are reported by every traced run of every workload; a
// layer a workload never reaches reports 0.
func perLayerMetrics() []metricDef {
	var ds []metricDef
	for l := layer(0); l < numLayers; l++ {
		name := layerNames[l]
		switch l {
		case lBoot, lClusterNew:
			ds = append(ds, metricDef{name: name + ".busy_ms", unit: "ms"})
			continue
		case lTotalWF:
			ds = append(ds, metricDef{name: name + ".busy_ms", unit: "ms"},
				metricDef{name: name + ".errno_count", unit: "count"})
			continue
		}
		for _, s := range layerSuffixes {
			if s.suffix == ".errno_count" && !hasErrno(l) {
				continue
			}
			ds = append(ds, metricDef{name: name + s.suffix, unit: s.unit})
		}
	}
	for _, d := range []metricDef{
		{name: "kernel.sim_cycles", unit: "cycles"},
		{name: "hw.lock.acquisitions", unit: "count"},
		{name: "hw.lock.contended_ratio", unit: "ratio"},
		{name: "hw.lock.wait_cycles", unit: "cycles"},
		{name: "kernel.batch.ops_per_doorbell", unit: "ops", better: "higher"},
		{name: "kernel.grant.pages", unit: "pages"},
		{name: "shmring.full_count", unit: "count"},
		{name: "apps.kvstore.sim_cycles", unit: "cycles"},
		{name: "apps.kvstore.miss_ratio", unit: "ratio"},
		{name: "cluster.kernel_cycles", unit: "cycles"},
		{name: "cluster.retries", unit: "count"},
		{name: "cluster.timeouts", unit: "count"},
		{name: "cluster.misrouted", unit: "count"},
		{name: "cluster.dropped", unit: "count"},
	} {
		ds = append(ds, d)
	}
	for _, c := range []string{"queue", "link", "lb", "backend", "backoff"} {
		for _, q := range []string{"p50", "p99"} {
			ds = append(ds, metricDef{name: "dist." + c + "." + q + "_cycles", unit: "cycles"})
		}
	}
	ds = append(ds,
		metricDef{name: "dist.trace_dropped", unit: "count"},
		metricDef{name: "dist.irregular", unit: "count"},
		metricDef{name: "trace.overhead_ratio", unit: "ratio"},
	)
	for i := range ds {
		if ds[i].better == "" {
			ds[i].better = "lower"
		}
	}
	return ds
}
