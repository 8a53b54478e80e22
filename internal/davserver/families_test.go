package davserver

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store"
)

// statusGauges marks a family whose reader is the storage & lifecycle
// gauge panel of /debug/status; TestEveryFamilyHasAReader checks the
// panel really shows it.
const statusGauges = "/debug/status gauges"

// familyReaders is the inventory of what a full davd publishes on
// /metrics: every family, and who reads it — a README runbook step, a
// test asserting its meaning, an SLO or brownout use, CI, or a
// /debug/status panel. A family nothing reads is deleted with the code
// that feeds it, not given a row.
var familyReaders = map[string]string{
	"process_uptime_seconds": "README Operating davd, /metrics: a drop is a restart",

	"dav_requests_total":            "TestBuildChainOrder",
	"dav_request_duration_seconds":  "README Observability: Metrics; exemplars in README When davd degrades",
	"dav_response_body_bytes":       "TestBuiltGetStreamsAndCounts",
	"dav_inflight_requests":         "TestInstrumentMetrics",
	"dav_panics_total":              "TestBuildChainOrder",
	"dav_locks_active":              "TestInstrumentMetrics",
	"dav_store_op_duration_seconds": "README Observability: Metrics",
	"dav_store_op_errors_total":     "TestStoreErrorsCountOnlyServerErrors",
	"dav_store_cancelled_total":     "TestClientDisconnectMidPutRollsBackCleanly, TestDeadlineExceededMaps503RetryAfter",

	"dav_gate_contended_total":        "TestQueuedDeletesLeaveOnDisconnect",
	"dav_gate_wait_seconds_total":     "TestQueuedDeletesLeaveOnDisconnect",
	"dav_gate_cancelled_total":        "TestQueuedDeletesLeaveOnDisconnect",
	"dav_pathlock_cancelled_total":    "TestQueuedDeletesLeaveOnDisconnect",
	"dav_pathlock_acquisitions_total": statusGauges,
	"dav_pathlock_contended_total":    statusGauges,
	"dav_pathlock_wait_seconds_total": statusGauges,
	"dav_pathlock_held":               statusGauges,

	"dav_dbm_cache_open":                "TestStatusShowsHandleCacheBytes",
	"dav_dbm_cache_bytes":               "TestStatusShowsHandleCacheBytes",
	"dav_dbm_cache_hits_total":          statusGauges,
	"dav_dbm_cache_misses_total":        statusGauges,
	"dav_dbm_cache_evictions_total":     statusGauges,
	"dav_dbm_cache_invalidations_total": statusGauges,

	"dav_recovering":                     "TestTrackStoreExposesRecoveryMetrics",
	"dav_recovery_runs_total":            "TestTrackStoreExposesRecoveryMetrics",
	"dav_recovery_rolled_forward_total":  statusGauges,
	"dav_recovery_rolled_back_total":     statusGauges,
	"dav_recovery_swept_tmp_total":       statusGauges,
	"dav_recovery_last_duration_seconds": statusGauges,
	"dav_journal_pending_intents":        "TestTrackStoreJournalGauge; README Operating davd, /metrics",
	"dav_fsync_errors_total":             "README Resilience: Durable writes",
	"dav_metric_label_overflow_total":    "README Operating davd, /metrics",

	"dav_admit_inflight":           "README When davd is overloaded",
	"dav_admit_queued":             statusGauges,
	"dav_admit_wait_seconds_total": "TestOverloadShedsHonestly",
	"dav_admit_shed_total":         "TestBuildChainOrder; README When davd is overloaded",

	"dav_brownout_deep_propfind_capped_total": statusGauges,

	"dav_slo_target":            "TestSLOGauges",
	"dav_slo_threshold_seconds": "TestSLOGauges",
	"dav_slo_good_total":        "TestSLOGauges",
	"dav_slo_bad_total":         "TestSLOGauges",
	"dav_slo_burn_rate":         "README Operating davd, /metrics: the alerting surface",
	"dav_slo_degraded":          "README When davd degrades; CI admission smoke",
	"dav_hot_path_requests":     "TestOpsConsoleOverBuiltServer; README Operating davd, /metrics",

	"dav_runtime_goroutines":       "TestRuntimeGauges, TestRuntimeIsReadWhenAsked",
	"dav_runtime_heap_alloc_bytes": "TestRuntimeGauges",
	"dav_runtime_heap_sys_bytes":   "TestRuntimeGauges",
	"dav_runtime_gc_cpu_fraction":  "TestRuntimeGauges",
	"dav_runtime_open_fds":         "TestRuntimeGauges",

	"dav_incident_bundles_total":    "TestIncidentRegister",
	"dav_incident_suppressed_total": "TestIncidentRegister",
	"dav_incident_retained":         "TestIncidentRegister",
}

// TestEveryFamilyHasAReader builds the fullest davd there is — the
// default SLO, admission, brownout — drives one PUT, GET, PROPFIND and
// DELETE plus one store failure through it, and requires the families
// on /metrics to be exactly familyReaders' rows. A new family without a
// row fails here; so does a row whose family is gone, and a
// statusGauges row the status console does not show.
func TestEveryFamilyHasAReader(t *testing.T) {
	root := t.TempDir()
	fs, err := store.NewFSStore(root, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	// A symlink loop: stat fails with ELOOP, which no DAV status
	// describes, so its GET is the 500 dav_store_op_errors_total counts.
	if err := os.Symlink("loop", filepath.Join(root, "loop")); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	cfg.AdmitLimit = 8
	cfg.Brownout = true
	dav, admin, _ := serveBuilt(t, cfg)
	wantStatus(t, do(t, "PUT", dav.URL+"/doc", nil, "x"), 201)
	wantStatus(t, do(t, "GET", dav.URL+"/doc", nil, ""), 200)
	wantStatus(t, do(t, "PROPFIND", dav.URL+"/doc", map[string]string{"Depth": "0"}, ""), 207)
	wantStatus(t, do(t, "DELETE", dav.URL+"/doc", nil, ""), 204)
	wantStatus(t, do(t, "GET", dav.URL+"/loop", nil, ""), 500)

	published := map[string]bool{}
	for _, line := range strings.Split(scrape(t, admin), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			published[f[2]] = true
		}
	}
	resp := do(t, "GET", admin.URL+"/debug/status?format=json", nil, "")
	wantStatus(t, resp, 200)
	var doc struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	onStatus := map[string]bool{}
	for key := range doc.Gauges {
		name, _, _ := strings.Cut(key, "{")
		onStatus[name] = true
	}

	for name := range published {
		if familyReaders[name] == "" {
			t.Errorf("%s is published but has no row: name what reads it, or delete it", name)
		}
	}
	for name, reader := range familyReaders {
		if !published[name] {
			t.Errorf("row %s: the server does not publish it", name)
		}
		if reader == statusGauges && !onStatus[name] {
			t.Errorf("row %s: /debug/status shows no such gauge", name)
		}
	}
}
