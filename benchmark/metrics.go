package main

// metricDef names one reported number. BENCHMARK.json repeats this
// table for the driver; a unit test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the median a change may cost
}

// endToEnd are the numbers a user of davd sees. Every time-based bound
// is the widest the driver accepts, because this sandbox's run-to-run
// spread (README.md, "Noise") leaves no room for a narrower one: the
// spreads measured on the build machine are 2–8 % after normalisation,
// a third of the bound. Bytes stored per user byte is deterministic.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"client_cpu_ms_per_op", "ms", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.01},
}

// perLayer are the numbers that say which layer moved. None is gated.
var perLayer = []metricDef{
	// Process view of davd and the generator during an end-to-end run.
	{Name: "davd.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "davd.user_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "davd.sys_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "davd.read_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "davd.write_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "davd.wchar_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "davd.vol_ctx_switches_per_op", Unit: "count", Better: "lower"},
	{Name: "client.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "davclient.propfind_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.proppatch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.mkcol_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.copy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "davclient.delete_p50_ms", Unit: "ms", Better: "lower"},
	// Traced in-process run: self time per layer and counters read at
	// the same boundaries.
	{Name: "harness.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "tools.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "davclient.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "http.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "davserver.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "store.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "store.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "davserver.response_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "pathlock.acquisitions_per_op", Unit: "count", Better: "lower"},
	{Name: "pathlock.contended_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pathlock.wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "dbm.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dbm.cache_opens_per_op", Unit: "count", Better: "lower"},
	{Name: "dbm.cache_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "inproc.op_ms", Unit: "ms", Better: "lower"},
	{Name: "inproc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "inproc.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "trace.op_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_sum_ratio", Unit: "ratio", Better: "lower"},
	// Isolated calls on inputs the traced run captured.
	{Name: "xmldom.parse_ms_per_body", Unit: "ms", Better: "lower"},
	{Name: "xmldom.sax_ms_per_body", Unit: "ms", Better: "lower"},
	{Name: "xmldom.marshal_ms_per_body", Unit: "ms", Better: "lower"},
	{Name: "davproto.parse_multistatus_ms_per_body", Unit: "ms", Better: "lower"},
	{Name: "davproto.decode_property_us", Unit: "us", Better: "lower"},
	{Name: "dbm.open_us", Unit: "us", Better: "lower"},
	{Name: "dbm.get_us", Unit: "us", Better: "lower"},
	{Name: "dbm.put_us", Unit: "us", Better: "lower"},
	{Name: "dbm.foreach_us_per_db", Unit: "us", Better: "lower"},
	{Name: "store.stat_with_props_us", Unit: "us", Better: "lower"},
	{Name: "store.list_with_props_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_4k_us", Unit: "us", Better: "lower"},
	{Name: "journal.begin_commit_us", Unit: "us", Better: "lower"},
	{Name: "journal.begin_commit_disk_us", Unit: "us", Better: "lower"},
}

// reported is one measured value with its unit, as the result line
// carries it.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report lays values out under defs; a metric whose layer did not run
// on this workload reads 0.
func report(defs []metricDef, values map[string]float64) map[string]reported {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		out[d.Name] = reported{values[d.Name], d.Unit}
	}
	return out
}
