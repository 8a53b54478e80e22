package davclient

import (
	"time"

	"repro/internal/obs"
)

// clientMetrics records client-side telemetry when Config.Metrics is
// set. A nil *clientMetrics is valid and discards everything, so the
// hot path needs no conditionals at call sites.
type clientMetrics struct {
	requests *obs.Counter
	retries  *obs.Counter
	shed     *obs.Counter
	backoff  *obs.Histogram
}

// newClientMetrics registers the client metric families in reg (nil
// disables metrics).
func newClientMetrics(reg *obs.Registry) *clientMetrics {
	if reg == nil {
		return nil
	}
	return &clientMetrics{
		requests: reg.Counter("davclient_requests_total",
			"HTTP requests issued, including retry attempts.", nil),
		retries: reg.Counter("davclient_retries_total",
			"Automatic retries performed on transient failures.", nil),
		shed: reg.Counter("dav_client_shed_total",
			"Responses identifying server load shedding: 429, or 503 carrying Retry-After.", nil),
		backoff: reg.Histogram("davclient_backoff_seconds",
			"Backoff sleeps scheduled between retry attempts.", nil, obs.DefBuckets),
	}
}

func (m *clientMetrics) countRequest() {
	if m != nil {
		m.requests.Inc()
	}
}

func (m *clientMetrics) countRetry() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *clientMetrics) countShed() {
	if m != nil {
		m.shed.Inc()
	}
}

func (m *clientMetrics) observeBackoff(d time.Duration) {
	if m != nil {
		m.backoff.Observe(d.Seconds())
	}
}
