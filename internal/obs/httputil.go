package obs

import "net/http"

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
