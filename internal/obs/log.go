package obs

import (
	"io"
	"log/slog"
)

// NewLogger builds a text-format slog.Logger writing to w at the given
// minimum level — the daemon's standard logger shape.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
