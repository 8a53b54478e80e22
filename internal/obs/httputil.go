package obs

import (
	"io"
	"net/http"
)

// ResponseRecorder wraps an http.ResponseWriter and records the status
// code and body byte count for access logging and metrics.
type ResponseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// NewResponseRecorder wraps w.
func NewResponseRecorder(w http.ResponseWriter) *ResponseRecorder {
	return &ResponseRecorder{ResponseWriter: w}
}

// WriteHeader records the status code.
func (rr *ResponseRecorder) WriteHeader(code int) {
	if rr.status == 0 {
		rr.status = code
	}
	rr.ResponseWriter.WriteHeader(code)
}

// Write counts body bytes (and implies a 200 if the handler never
// called WriteHeader, matching net/http).
func (rr *ResponseRecorder) Write(p []byte) (int, error) {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	n, err := rr.ResponseWriter.Write(p)
	rr.bytes += int64(n)
	return n, err
}

// ReadFrom hands src to the wrapped writer's own ReadFrom and counts what
// it moved. Without it the recorder hides that method, and io.Copy from a
// document falls back to a fresh 32 KB buffer per response where
// net/http would use a pooled one or sendfile(2).
func (rr *ResponseRecorder) ReadFrom(src io.Reader) (int64, error) {
	rf, ok := rr.ResponseWriter.(io.ReaderFrom)
	if !ok {
		// struct{ io.Writer } has no ReadFrom, so this cannot come back here.
		return io.Copy(struct{ io.Writer }{rr}, src)
	}
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	n, err := rf.ReadFrom(src)
	rr.bytes += n
	return n, err
}

// Status returns the response status (200 when the handler wrote a
// body without an explicit WriteHeader, 0 when nothing was written).
func (rr *ResponseRecorder) Status() int {
	if rr.status == 0 {
		return http.StatusOK
	}
	return rr.status
}

// Bytes returns the number of body bytes written.
func (rr *ResponseRecorder) Bytes() int64 { return rr.bytes }

// Flush passes through to the underlying writer when it supports it.
func (rr *ResponseRecorder) Flush() {
	if f, ok := rr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (rr *ResponseRecorder) Unwrap() http.ResponseWriter { return rr.ResponseWriter }

// StatusClass buckets an HTTP status code as "1xx".."5xx" for
// low-cardinality metric labels.
func StatusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}
