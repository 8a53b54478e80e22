package store

import (
	"context"
	"time"

	"repro/internal/obs/trace"
)

// OpObserver receives one store operation's name, wall-clock duration,
// and error (nil on success). Implementations must be safe for
// concurrent use; the telemetry layer supplies one that records
// latency histograms and error counters.
type OpObserver func(op string, d time.Duration, err error)

// Instrument wraps s so every Store operation is timed and reported to
// obs, and — when the operation's context carries an active trace span
// — recorded as a child span named "store.<op>". The span's context is
// what flows down into the wrapped store, so deeper layers (lock
// waits, DBM calls) nest under it. The span and the observer see the
// same duration, measured once on the tracer's clock, so a trace and
// the latency histogram can never disagree about one operation.
//
// Get timings cover opening the document, not streaming its body (the
// HTTP layer's response-size histograms cover transfer). Close has no
// request context and therefore never a span; the observer still sees
// it.
func Instrument(s Store, obs OpObserver) Store {
	return Intercept(s, func(ctx context.Context, op Op, next func(context.Context) error) error {
		attrs := []trace.Attr{trace.Str("path", op.Path)}
		switch {
		case op.Dst != "":
			attrs = []trace.Attr{trace.Str("src", op.Path), trace.Str("dst", op.Dst)}
		case op.Name == OpPropPut:
			attrs = append(attrs, trace.Int("bytes", int64(op.Bytes)))
		}
		ctx, end := trace.Region(ctx, "store."+op.Name, attrs...)
		err := next(ctx)
		obs(op.Name, end(err), err)
		return err
	})
}
