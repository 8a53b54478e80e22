package admit

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs/trace"
)

// ShedReasonHeader tells a shed client why: "queue-full", the only
// reason there is.
const ShedReasonHeader = "X-Admit-Shed"

// statusClientClosedRequest mirrors davserver's 499: the waiter's
// client went away while queued, which is neither a server nor a client
// protocol error.
const statusClientClosedRequest = 499

// Middleware wraps next with admission control. Place it outside the
// hardening and auth layers but inside instrumentation, so shed
// responses still appear in metrics, the access log, and SLO
// accounting — a shed is fast and non-5xx, so it does not burn the
// latency SLO; its visibility lives in dav_admit_shed_total.
func (l *Limiter) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		release, err := l.Acquire(r.Context())
		if err != nil {
			var se *ShedError
			if errors.As(err, &se) {
				writeShed(w, se)
				return
			}
			// The client went away while queued; nothing useful can be
			// written, but the status classifies the outcome.
			w.WriteHeader(statusClientClosedRequest)
			return
		}
		defer release()
		if sp := trace.SpanFromContext(r.Context()); sp != nil {
			if wait := time.Since(start); wait > time.Millisecond {
				sp.SetAttr(trace.Int("admit.wait_ms", wait.Milliseconds()))
			}
		}
		next.ServeHTTP(w, r)
	})
}

// writeShed emits the honest rejection: 429, a Retry-After the client
// can trust, and the reason. 429 (not 503) for every admission shed:
// the server is healthy, the request was simply not admitted, and
// intermediaries must not mark the backend dead.
func writeShed(w http.ResponseWriter, se *ShedError) {
	secs := int(math.Ceil(se.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set(ShedReasonHeader, "queue-full")
	http.Error(w, "server overloaded: queue-full", http.StatusTooManyRequests)
}
