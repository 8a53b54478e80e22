// Package admit is the server's overload-protection layer: an adaptive
// concurrency limiter with a short, priority-classed admission queue, a
// server-side retry budget, and a brownout controller that sheds
// expensive *behaviors* (auto-versioning snapshots, unbounded-depth
// PROPFIND, background sampling) before the limiter sheds *requests*.
//
// The paper's data server leaned on Apache's static knobs — "100
// connections per minute, 15 seconds between requests" — and a cap on
// connections is the wrong failure mode at scale: the server accepts
// work it cannot finish, latency collapses for every client, and the
// rejected ones see a connection reset with no guidance. This package
// is application-level admission instead: requests past
// the adaptive limit wait briefly in a bounded queue (cancellation
// aware, like every queue in the storage stack), the expensive tail is
// shed first, and every shed response is an honest 429 with a
// Retry-After estimate instead of a reset.
package admit

import (
	"net/http"
	"strings"
)

// Priority orders request classes from most to least protected. Lower
// values are admitted first and shed last.
type Priority int

const (
	// Probe is liveness/readiness traffic (OPTIONS and, in davd, the
	// probe endpoints mounted outside this middleware). Probes bypass
	// the limiter entirely: an overloaded server must still answer
	// "are you alive" cheaply, or the orchestrator will make the
	// overload worse by restarting it.
	Probe Priority = iota
	// Read is the cheap interactive tier: GET/HEAD document fetches and
	// bounded-depth PROPFIND listings — the paper's dominant workload.
	Read
	// Write is the mutation tier: PUT/DELETE/MKCOL/PROPPATCH and the
	// locking methods. More expensive than reads (journal, fsync,
	// exclusive path locks) but still single-resource.
	Write
	// Heavy is the expensive tail shed first: subtree COPY/MOVE,
	// SEARCH, and Depth: infinity PROPFIND — one request that can touch
	// the whole namespace.
	Heavy

	numPriorities = int(Heavy) + 1
)

// Priorities lists every class in admission order, for metric
// registration loops.
func Priorities() []Priority { return []Priority{Probe, Read, Write, Heavy} }

func (pr Priority) String() string {
	switch pr {
	case Probe:
		return "probe"
	case Read:
		return "read"
	case Write:
		return "write"
	case Heavy:
		return "heavy"
	}
	return "unknown"
}

// ParsePriority maps a class name (as used by the override header) back
// to its Priority.
func ParsePriority(s string) (Priority, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "probe":
		return Probe, true
	case "read":
		return Read, true
	case "write":
		return Write, true
	case "heavy":
		return Heavy, true
	}
	return 0, false
}

// Classify derives a request's admission class from its method and, for
// PROPFIND, its Depth header. Unknown methods classify as Read: they
// will fail cheaply in the handler anyway.
func Classify(r *http.Request) Priority {
	switch r.Method {
	case http.MethodOptions:
		return Probe
	case http.MethodGet, http.MethodHead, "REPORT":
		return Read
	case "PROPFIND":
		// RFC 4918: an absent Depth header means infinity, so only an
		// explicit bounded depth earns the cheap tier.
		switch strings.TrimSpace(r.Header.Get("Depth")) {
		case "0", "1":
			return Read
		}
		return Heavy
	case "COPY", "MOVE", "SEARCH":
		return Heavy
	case http.MethodPut, http.MethodDelete, "MKCOL", "PROPPATCH",
		"LOCK", "UNLOCK", "VERSION-CONTROL":
		return Write
	}
	return Read
}
