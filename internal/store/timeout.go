package store

import (
	"context"
	"time"
)

// OpTimeout wraps s so that every store operation runs under its own
// deadline of d, layered on top of whatever deadline the caller's
// context already carries. This is the davd -store-op-timeout knob: a
// per-operation bound that keeps one pathological request (a lock
// convoy on a hot collection, a scan of a huge property database) from
// holding server resources indefinitely, independent of the
// whole-request timeout, which must stay generous enough for 200 MB
// document transfers.
//
// The deadline applies per store call, not per request: a PROPFIND
// that makes many store calls gets a fresh budget for each. When the
// deadline fires the operation returns an error wrapping
// context.DeadlineExceeded, which the DAV layer maps to 503 with a
// Retry-After.
//
// Get's deadline covers opening the document, not streaming it: neither
// store's reader consults the context after Get returns, so a slow
// client streaming a large body is not cut off at the op deadline.
//
// A d of zero (or negative) disables the wrapper: OpTimeout returns s
// unchanged.
func OpTimeout(s Store, d time.Duration) Store {
	if d <= 0 {
		return s
	}
	return Intercept(s, func(ctx context.Context, _ Op, next func(context.Context) error) error {
		ctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		return next(ctx)
	})
}
